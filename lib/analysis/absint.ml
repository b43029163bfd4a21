module I = Pp_ir.Instr
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Cfg = Pp_ir.Cfg
module Loops = Pp_graph.Loops
module Digraph = Pp_graph.Digraph
module Dfs = Pp_graph.Dfs
module Imap = Map.Make (Int)

(* Both numeric domains implement the shared signature. *)
module _ : Domain.S = Interval
module _ : Domain.S = Congruence

(* Pointer-aware abstract value: a base plus a numeric offset.  [Bnum]
   means a plain (non-pointer) integer whose value is the offset itself;
   [Bglobal g] / [Bframe] mean base-of-[g] / frame-pointer plus the
   offset; [Bany] is top (itv/cong then abstract nothing useful, and are
   kept at top). *)
type base = Bnum | Bglobal of string | Bframe | Bany

type value = {
  base : base;
  itv : Interval.t;
  cong : Congruence.t;
  taint : Taint.t;
}

let vmake ?(taint = Taint.Clean) base itv cong = { base; itv; cong; taint }

let vtop ?(taint = Taint.Clean) () =
  { base = Bany; itv = Interval.top; cong = Congruence.top; taint }

let vnum ?taint itv cong = vmake ?taint Bnum itv cong
let vconst ?taint n = vnum ?taint (Interval.const n) (Congruence.const n)

(* An unknown plain integer.  Used for values read back from program
   memory and call results; soundness of calling these non-pointers rests
   on the no-taint-escape invariant the verifier enforces at stores and on
   the VM's segment checks (a program cannot fabricate a pointer into
   instrumentation-owned state without the certifier flagging the store
   that leaked it). *)
let vunknown ?taint () = vnum ?taint Interval.top Congruence.top

let base_equal a b =
  match (a, b) with
  | Bnum, Bnum | Bframe, Bframe | Bany, Bany -> true
  | Bglobal g, Bglobal h -> String.equal g h
  | (Bnum | Bglobal _ | Bframe | Bany), _ -> false

let vequal a b =
  a == b
  || base_equal a.base b.base
     && Interval.equal a.itv b.itv
     && Congruence.equal a.cong b.cong
     && Taint.equal a.taint b.taint

(* Joins and widenings return [a] itself whenever the result equals it
   (both are idempotent, so equal inputs settle at once): a fixpoint's
   environments then share their settled values physically, and [vequal]
   decides those at its first test. *)
let unchanged a v = if vequal a v then a else v

let vjoin a b =
  if vequal a b then a
  else
    let taint = Taint.join a.taint b.taint in
    unchanged a
      (if base_equal a.base b.base then
         {
           base = a.base;
           itv = Interval.join a.itv b.itv;
           cong = Congruence.join a.cong b.cong;
           taint;
         }
       else vtop ~taint ())

let vwiden a b =
  if vequal a b then a
  else
    let taint = Taint.join a.taint b.taint in
    unchanged a
      (if base_equal a.base b.base then
         {
           base = a.base;
           itv = Interval.widen a.itv b.itv;
           cong = Congruence.widen a.cong b.cong;
           taint;
         }
       else vtop ~taint ())

(* Per-program-point environment: integer registers, float-register
   taints, tracked frame slots (byte offset -> value, strong updates on
   constant offsets) and the escape hull — the range of frame offsets
   whose address may have left the procedure (stored to memory or passed
   to a call); callees may write anywhere inside it.

   The transfer functions update an environment in place.  Every walk
   over a block takes one private copy of its entry environment first
   ([copy_env]), so an environment the fixpoint has stored — an entry,
   or a block's out-state shared by several successors — is never
   mutated. *)
type env = {
  ivals : value array;
  ftaints : Taint.t array;
  mutable frame : value Imap.t;
  mutable escaped : (int * int) option;
}

let copy_env e =
  {
    ivals = Array.copy e.ivals;
    ftaints = Array.copy e.ftaints;
    frame = e.frame;
    escaped = e.escaped;
  }

let hull_join a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (l1, h1), Some (l2, h2) -> Some (min l1 l2, max h1 h2)

let env_join a b =
  {
    ivals = Array.init (Array.length a.ivals) (fun i -> vjoin a.ivals.(i) b.ivals.(i));
    ftaints =
      Array.init (Array.length a.ftaints) (fun i ->
          Taint.join a.ftaints.(i) b.ftaints.(i));
    frame =
      Imap.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (vjoin x y)
          | _ -> None)
        a.frame b.frame;
    escaped = hull_join a.escaped b.escaped;
  }

let env_widen old next =
  {
    ivals =
      Array.init (Array.length old.ivals) (fun i ->
          vwiden old.ivals.(i) next.ivals.(i));
    ftaints =
      Array.init (Array.length old.ftaints) (fun i ->
          Taint.join old.ftaints.(i) next.ftaints.(i));
    frame =
      Imap.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (vwiden x y)
          | _ -> None)
        old.frame next.frame;
    escaped =
      (* the hull can otherwise grow one slot per iteration *)
      (match (old.escaped, next.escaped) with
      | None, x -> x
      | Some o, Some n when Some o = hull_join (Some o) (Some n) -> Some o
      | Some _, _ -> Some (min_int, max_int));
  }

let env_equal a b =
  a == b
  || Array.length a.ivals = Array.length b.ivals
  && Array.for_all2 vequal a.ivals b.ivals
  && Array.for_all2 Taint.equal a.ftaints b.ftaints
  && Imap.equal vequal a.frame b.frame
  && a.escaped = b.escaped

type config = {
  budget : int;  (** VM instruction budget the caps derive from *)
  pic_cap : int;  (** upper bound on any PIC reading *)
  cell_cap : int;  (** upper bound on any table-cell value *)
  widen_delay : int;  (** joins at a loop header before widening *)
  fuel : int;  (** joins anywhere before safety-net widening *)
  descend : int;  (** post-fixpoint narrowing passes *)
  policy : Taint.policy;
  tables : (string * int) list;  (** table global -> size in words *)
}

(* The caps are machine invariants, not analysis results: a run executes
   at most [budget] instructions, each event counter advances a bounded
   number of times per instruction (memory latencies keep it well under
   1024), and a table cell only ever accumulates counter deltas or +1
   increments.  The runtime oracle in the test suite cross-checks them
   against real executions. *)
let config ?(budget = 2_000_000_000) ?(policy = Taint.none) ?(tables = []) ()
    =
  let cap =
    if budget > max_int asr 11 then max_int asr 1 else budget * 1024
  in
  {
    budget;
    pic_cap = cap;
    cell_cap = cap;
    widen_delay = 3;
    fuel = 48;
    descend = 2;
    policy;
    tables;
  }

let table_size conf g = List.assoc_opt g conf.tables

(* [names n o]: [o = Some n], without the polymorphic compare. *)
let names n = function Some m -> m = n | None -> false

(* ---- transfer functions ---- *)

let vbinop op a b =
  let taint = Taint.join a.taint b.taint in
  let num () =
    let itv, no_wrap = Interval.binop_report op a.itv b.itv in
    let cong = Congruence.binop ~no_wrap op a.cong b.cong in
    { base = Bnum; itv; cong; taint }
  in
  let offset base =
    let itv, no_wrap = Interval.binop_report op a.itv b.itv in
    if no_wrap then
      { base; itv; cong = Congruence.binop ~no_wrap op a.cong b.cong; taint }
    else vtop ~taint ()
  in
  match (op, a.base, b.base) with
  | _, Bany, _ | _, _, Bany -> vtop ~taint ()
  | _, Bnum, Bnum -> num ()
  | I.Add, (Bglobal _ | Bframe), Bnum -> offset a.base
  | I.Add, Bnum, (Bglobal _ | Bframe) ->
      let itv, no_wrap = Interval.binop_report op a.itv b.itv in
      if no_wrap then
        { base = b.base; itv;
          cong = Congruence.binop ~no_wrap op a.cong b.cong; taint }
      else vtop ~taint ()
  | I.Sub, (Bglobal _ | Bframe), Bnum -> offset a.base
  | I.Sub, Bglobal g1, Bglobal g2 when g1 = g2 -> offset Bnum
  | I.Sub, Bframe, Bframe -> offset Bnum
  | _ -> vtop ~taint ()

let vcmp c a b =
  let taint = Taint.join a.taint b.taint in
  match (a.base, b.base) with
  | Bnum, Bnum ->
      vmake ~taint Bnum (Interval.cmp c a.itv b.itv)
        (Congruence.cmp c a.cong b.cong)
  | _ -> vnum ~taint (Interval.make 0 1) Congruence.top

let in_fresh_slots conf itv =
  let lo, hi = conf.policy.Taint.fresh_slots in
  lo < hi && Interval.lo itv >= lo && Interval.hi itv < hi

(* Address of [rb + off] as an abstract value. *)
let address env ~base ~off = vbinop I.Add env.ivals.(base) (vconst off)

let loaded conf env ~base ~off =
  let a = address env ~base ~off in
  match a.base with
  | Bglobal g -> (
      match table_size conf g with
      | Some _ ->
          (* table cells: bounded by the machine invariant, and probe data
             through and through *)
          vnum ~taint:Taint.Tainted
            (Interval.make 0 conf.cell_cap)
            Congruence.top
      | None -> vunknown ~taint:a.taint ())
  | Bframe -> (
      match Interval.is_const a.itv with
      | Some c ->
          let v =
            Option.value (Imap.find_opt c env.frame)
              ~default:(vunknown ())
          in
          let v =
            if names c conf.policy.Taint.path_slot then
              { v with taint = Taint.Tainted }
            else v
          in
          { v with taint = Taint.join v.taint a.taint }
      | None ->
          let taint =
            match conf.policy.Taint.path_slot with
            | Some s when Interval.mem s a.itv -> Taint.Tainted
            | _ -> a.taint
          in
          vunknown ~taint ())
  | Bnum | Bany -> vunknown ~taint:a.taint ()

(* Mark a value's frame pointees as escaped. *)
let escape env v =
  match v.base with
  | Bframe ->
      env.escaped <-
        hull_join env.escaped (Some (Interval.lo v.itv, Interval.hi v.itv))
  | Bany -> env.escaped <- Some (min_int, max_int)
  | Bnum | Bglobal _ -> ()

let set conf env r v =
  env.ivals.(r) <-
    (if names r conf.policy.Taint.path_reg then
       { v with taint = Taint.Tainted }
     else v)

let fset env f t = env.ftaints.(f) <- t

let store env ~v ~base ~off =
  let a = address env ~base ~off in
  escape env v;
  match a.base with
  | Bframe -> (
      match Interval.is_const a.itv with
      | Some c -> env.frame <- Imap.add c v env.frame
      | None ->
          let lo = Interval.lo a.itv and hi = Interval.hi a.itv in
          env.frame <- Imap.filter (fun k _ -> k < lo || k > hi) env.frame)
  | Bany -> env.frame <- Imap.empty
  | Bglobal _ | Bnum -> ()

let call conf env ~target ~args ~ret =
  List.iter (fun r -> escape env env.ivals.(r)) args;
  Option.iter (fun r -> escape env env.ivals.(r)) target;
  (* the callee may write through any escaped frame pointer *)
  (match env.escaped with
  | None -> ()
  | Some (lo, hi) ->
      env.frame <- Imap.filter (fun k _ -> k < lo || k > hi) env.frame);
  match (ret : I.ret_dest) with
  | I.Rint rd -> set conf env rd (vunknown ())
  | I.Rfloat fd -> fset env fd Taint.Clean
  | I.Rnone -> ()

(* The transfer of one instruction, in place. *)
let exec conf env (instr : I.t) =
  let get r = env.ivals.(r) in
  let ft f = env.ftaints.(f) in
  match instr with
  | I.Iconst (rd, n) -> set conf env rd (vconst n)
  | I.Iconst_sym (rd, s) ->
      set conf env rd
        (vmake (Bglobal s) (Interval.const 0) (Congruence.const 0))
  | I.Fconst (fd, _) -> fset env fd Taint.Clean
  | I.Imov (rd, rs) -> set conf env rd (get rs)
  | I.Fmov (fd, fs) -> fset env fd (ft fs)
  | I.Ibinop (op, rd, rs1, rs2) ->
      set conf env rd (vbinop op (get rs1) (get rs2))
  | I.Ibinop_imm (op, rd, rs, n) ->
      set conf env rd (vbinop op (get rs) (vconst n))
  | I.Icmp (c, rd, rs1, rs2) -> set conf env rd (vcmp c (get rs1) (get rs2))
  | I.Icmp_imm (c, rd, rs, n) ->
      set conf env rd (vcmp c (get rs) (vconst n))
  | I.Fbinop (_, fd, fs1, fs2) -> fset env fd (Taint.join (ft fs1) (ft fs2))
  | I.Fcmp (_, rd, fs1, fs2) ->
      set conf env rd
        (vnum
           ~taint:(Taint.join (ft fs1) (ft fs2))
           (Interval.make 0 1) Congruence.top)
  | I.Itof (fd, rs) -> fset env fd (get rs).taint
  | I.Ftoi (rd, fs) -> set conf env rd (vunknown ~taint:(ft fs) ())
  | I.Load (rd, rb, off) -> set conf env rd (loaded conf env ~base:rb ~off)
  | I.Fload (fd, rb, off) ->
      fset env fd (loaded conf env ~base:rb ~off).taint
  | I.Store (rs, rb, off) -> store env ~v:(get rs) ~base:rb ~off
  | I.Fstore (fs, rb, off) ->
      store env ~v:(vunknown ~taint:(ft fs) ()) ~base:rb ~off
  | I.Call { args; ret; _ } -> call conf env ~target:None ~args ~ret
  | I.Callind { target; args; ret; _ } ->
      call conf env ~target:(Some target) ~args ~ret
  | I.Hwread (rd, _) ->
      let taint =
        if conf.policy.Taint.hw_tainted then Taint.Tainted else Taint.Clean
      in
      set conf env rd
        (vnum ~taint (Interval.make 0 conf.pic_cap) Congruence.top)
  | I.Frameaddr (rd, off) ->
      set conf env rd
        (vmake Bframe (Interval.const off) (Congruence.const off))
  | I.Hwzero | I.Hwwrite _ | I.Print_int _ | I.Print_float _ | I.Prof _ ->
      ()

let transfer conf env instr =
  let env = copy_env env in
  exec conf env instr;
  env

(* ---- fixpoint ---- *)

type t = {
  cfg : Cfg.t;
  conf : config;
  entries : env option array;
}

let entry0 conf (p : Proc.t) =
  let ivals =
    Array.init p.Proc.niregs (fun r ->
        if r < p.Proc.iparams then vunknown () else vconst 0)
  in
  let ivals =
    (* per-activation registers are zero-initialised; the path home is
       tainted from the very first state *)
    match conf.policy.Taint.path_reg with
    | Some r when r < Array.length ivals ->
        ivals.(r) <- { (ivals.(r)) with taint = Taint.Tainted };
        ivals
    | _ -> ivals
  in
  {
    ivals;
    ftaints = Array.make p.Proc.nfregs Taint.Clean;
    frame = Imap.empty;
    escaped = None;
  }

let exec_block conf env (b : Block.t) =
  let env = copy_env env in
  List.iter (exec conf env) b.Block.instrs;
  env

let succ_labels (b : Block.t) = Block.successors b

let analyze ?conf (cfg : Cfg.t) =
  let conf = match conf with Some c -> c | None -> config () in
  let p = cfg.Cfg.proc in
  let n = Array.length p.Proc.blocks in
  let loops = Loops.analyze cfg.Cfg.graph ~root:cfg.Cfg.entry in
  let joins = Array.make n 0 in
  let merge l old env =
    joins.(l) <- joins.(l) + 1;
    let widen_now =
      (Loops.is_header loops l && joins.(l) > conf.widen_delay)
      || joins.(l) > conf.fuel
    in
    let next =
      if widen_now then env_widen old (env_join old env) else env_join old env
    in
    if env_equal old next then None else Some next
  in
  let step l env =
    let b = p.Proc.blocks.(l) in
    let out = exec_block conf env b in
    List.map (fun l' -> (l', out)) (succ_labels b)
  in
  let entries =
    Dataflow.solve ~size:n ~start:p.Proc.entry ~init:(entry0 conf p) ~step
      ~merge
  in
  (* Descending passes recover precision lost to widening: applying the
     (monotone, sound) transfer to any over-approximation of the least
     fixpoint yields another over-approximation, so a bounded number of
     re-evaluations is sound without reaching a fixpoint.  Gauss-Seidel in
     reverse postorder — each block's predecessors are re-executed against
     the entries already narrowed this pass, so recovery crosses a whole
     forward chain per pass instead of one edge per pass (backedges still
     need one pass each, hence [conf.descend] > 1). *)
  let rpo =
    Dfs.reverse_postorder (Dfs.run cfg.Cfg.graph ~root:cfg.Cfg.entry)
    |> List.filter_map (Cfg.label_of_vertex cfg)
  in
  for _ = 1 to conf.descend do
    List.iter
      (fun l ->
        if entries.(l) <> None then begin
          let incoming =
            ref (if l = p.Proc.entry then [ entry0 conf p ] else [])
          in
          List.iter
            (fun (e : Digraph.edge) ->
              match Cfg.label_of_vertex cfg e.Digraph.src with
              | Some src -> (
                  match entries.(src) with
                  | Some env ->
                      incoming :=
                        exec_block conf env p.Proc.blocks.(src) :: !incoming
                  | None -> ())
              | None -> ())
            (Digraph.in_edges cfg.Cfg.graph l);
          match !incoming with
          | [] -> ()
          | e :: es -> entries.(l) <- Some (List.fold_left env_join e es)
        end)
      rpo
  done;
  { cfg; conf; entries }

(* ---- client access ---- *)

let entry_env t l = t.entries.(l)

let ireg env r = env.ivals.(r)
let ftaint env f = env.ftaints.(f)

(* Replay a reached block on one private copy of its entry: [f] sees the
   environment in force immediately before each instruction, [post] the
   one right after it.  Returns the environment before the terminator;
   [None] when the block is unreached. *)
let iter_block t l ?(post = fun ~pos:_ _ _ -> ()) f =
  match t.entries.(l) with
  | None -> None
  | Some env ->
      let env = copy_env env in
      List.iteri
        (fun pos instr ->
          f ~pos env instr;
          exec t.conf env instr;
          post ~pos env instr)
        t.cfg.Cfg.proc.Proc.blocks.(l).Block.instrs;
      Some env

(* Concretization membership for the runtime oracle: does machine value
   [x] (with the activation's frame pointer [frame] and a resolver for
   global base addresses) lie inside the abstract value?  Unresolvable
   components answer [true] — the oracle only reports definite
   violations. *)
let admits ~global_base ~frame v x =
  let num_ok itv cong n =
    Interval.mem n itv && Congruence.leq (Congruence.const n) cong
  in
  match v.base with
  | Bany -> true
  | Bnum -> num_ok v.itv v.cong x
  | Bframe -> num_ok v.itv v.cong (x - frame)
  | Bglobal g -> (
      match global_base g with
      | Some b -> num_ok v.itv v.cong (x - b)
      | None -> true)

let pp_value ppf v =
  let pb ppf = function
    | Bnum -> ()
    | Bglobal g -> Format.fprintf ppf "&%s+" g
    | Bframe -> Format.fprintf ppf "fp+"
    | Bany -> Format.fprintf ppf "any "
  in
  Format.fprintf ppf "%a%a %a %a" pb v.base Interval.pp v.itv Congruence.pp
    v.cong Taint.pp v.taint
