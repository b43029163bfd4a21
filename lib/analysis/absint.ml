module I = Pp_ir.Instr
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Cfg = Pp_ir.Cfg
module Loops = Pp_graph.Loops
module Digraph = Pp_graph.Digraph
module Dfs = Pp_graph.Dfs
module Imap = Intmap

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

(* Top and the unknown plain integer below are shared, one per taint, so
   unknowns made by different instructions meet at a join as one value. *)
let unknown base taint =
  { base; itv = Interval.top; cong = Congruence.top; taint }

let any_clean = unknown Bany Taint.Clean
let any_tainted = unknown Bany Taint.Tainted
let num_clean = unknown Bnum Taint.Clean
let num_tainted = unknown Bnum Taint.Tainted

let vtop ?(taint = Taint.Clean) () =
  match taint with Taint.Clean -> any_clean | Taint.Tainted -> any_tainted

let vnum ?taint itv cong = vmake ?taint Bnum itv cong

(* Untainted constants in [const_lo, const_hi] come from one table, so a
   re-executed [Iconst] or address offset yields the value it yielded
   before and a merge sees the two registers as [==].  The table is built
   on first use: code that never analyses pays nothing for it.  It is
   published through an [Atomic], so a domain that reads it sees it
   filled; two domains that both build it each publish a correct one. *)
let const_lo = -64
let const_hi = 1023
let consts = Atomic.make [||]

let fresh_const n = vnum (Interval.const n) (Congruence.const n)

let vconst n =
  if n < const_lo || n > const_hi then fresh_const n
  else
    let table = Atomic.get consts in
    if Array.length table > 0 then table.(n - const_lo)
    else begin
      let table =
        Array.init (const_hi - const_lo + 1) (fun k ->
            fresh_const (k + const_lo))
      in
      Atomic.set consts table;
      table.(n - const_lo)
    end

(* An unknown plain integer.  Used for values read back from program
   memory and call results; soundness of calling these non-pointers rests
   on the no-taint-escape invariant the verifier enforces at stores and on
   the VM's segment checks (a program cannot fabricate a pointer into
   instrumentation-owned state without the certifier flagging the store
   that leaked it). *)
let vunknown ?(taint = Taint.Clean) () =
  match taint with Taint.Clean -> num_clean | Taint.Tainted -> num_tainted

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

(* A join or widening returns whichever operand equals its result — [a]
   first, then [b] — and builds a record only for a value neither holds
   (both are idempotent, so equal inputs settle at once).  A fixpoint's
   environments then share their settled values physically, a merge tells
   what changed by [==] alone, and an entry that took [next]'s register
   meets the same record again the next time that register arrives. *)
let vbound ~widen a b =
  if a == b then a
  else
    let taint = Taint.join a.taint b.taint in
    if base_equal a.base b.base then
      let i =
        if widen then Interval.widen a.itv b.itv else Interval.join a.itv b.itv
      in
      let c =
        if widen then Congruence.widen a.cong b.cong
        else Congruence.join a.cong b.cong
      in
      if i == a.itv && Congruence.equal c a.cong && taint == a.taint then a
      else if
        Interval.equal i b.itv && Congruence.equal c b.cong && taint == b.taint
      then b
      else { base = a.base; itv = i; cong = c; taint }
    else
      let t = vtop ~taint () in
      if vequal a t then a else if vequal b t then b else t

let vjoin a b = vbound ~widen:false a b
let vwiden a b = vbound ~widen:true a b

(* Per-program-point environment: integer registers, float-register
   taints, tracked frame slots (byte offset -> value, strong updates on
   constant offsets) and the escape hull — the range of frame offsets
   whose address may have left the procedure (stored to memory or passed
   to a call); callees may write anywhere inside it.

   The transfer functions update an environment in place.  Every walk
   over a block takes one private copy of its entry environment first
   ([copy_env]), so an environment the fixpoint has stored — an entry,
   a block's out-state shared by several successors, or an array a
   merge left unchanged and shares with the entry it replaced — is
   never mutated. *)
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

(* The hull of two escape ranges; like the joins, it returns an operand
   that equals the result, [a] first. *)
let hull_join a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (l1, h1), Some (l2, h2) ->
      if l1 <= l2 && h2 <= h1 then a
      else if l2 <= l1 && h1 <= h2 then b
      else Some (Int.min l1 l2, Int.max h1 h2)

(* [join_env ~widen old next] is [old] joined with [next] — then, when
   [widen], widened against [old] — or [None] when that leaves [old] as
   it is.  [vjoin] and [vwiden] return their left operand exactly when
   the result equals it, so one physical comparison per entry decides
   what changed: an array is copied at its first changed entry, the
   frame map is rebuilt only when a slot changed or dropped out, and
   nothing is allocated when nothing changed.  The loops below are
   written per element type, with the joins called directly: a merge
   visits every register, and most are physically equal to [next]'s. *)
let join_value ~widen a b =
  if a == b then a
  else
    let j = vjoin a b in
    if widen then vwiden a j else j

let join_ivals ~widen old next =
  let n = Array.length old in
  let rec scan i =
    if i = n then old
    else
      let a = old.(i) and b = next.(i) in
      if a == b then scan (i + 1)
      else
        let j = join_value ~widen a b in
        if j == a then scan (i + 1)
        else begin
          let r = Array.copy old in
          r.(i) <- j;
          for k = i + 1 to n - 1 do
            let a = old.(k) and b = next.(k) in
            if a != b then begin
              let j = join_value ~widen a b in
              if j != a then r.(k) <- j
            end
          done;
          r
        end
  in
  scan 0

let join_taints old next =
  let n = Array.length old in
  let rec scan i =
    if i = n then old
    else
      let a = old.(i) in
      let j = Taint.join a next.(i) in
      if j == a then scan (i + 1)
      else begin
        let r = Array.copy old in
        r.(i) <- j;
        for k = i + 1 to n - 1 do
          r.(k) <- Taint.join old.(k) next.(k)
        done;
        r
      end
  in
  scan 0

let join_frame ~widen old next =
  if Imap.sub (fun x y -> join_value ~widen x y == x) old next then old
  else Imap.inter (fun _ x y -> Some (join_value ~widen x y)) old next

let join_env ~widen old next =
  let ivals = join_ivals ~widen old.ivals next.ivals in
  let ftaints = join_taints old.ftaints next.ftaints in
  let frame = join_frame ~widen old.frame next.frame in
  let escaped =
    (* [hull_join] returns [old.escaped] itself when the hull is unchanged *)
    match (old.escaped, hull_join old.escaped next.escaped) with
    | o, j when o == j -> o
    | Some _, _ when widen ->
        (* the hull can otherwise grow one slot per iteration *)
        Some (min_int, max_int)
    | _, j -> j
  in
  if
    ivals == old.ivals && ftaints == old.ftaints && frame == old.frame
    && escaped == old.escaped
  then None
  else Some { ivals; ftaints; frame; escaped }

type config = {
  budget : int;  (** VM instruction budget the caps derive from *)
  pic_cap : int;  (** upper bound on any PIC reading *)
  cell_cap : int;  (** upper bound on any table-cell value *)
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
    policy;
    tables;
  }

let table_size conf g = List.assoc_opt g conf.tables

(* [names n o]: [o = Some n], without the polymorphic compare. *)
let names n = function Some m -> m = n | None -> false

(* ---- transfer functions ---- *)

(* The unknown boolean, one per taint. *)
let bool_clean = vnum (Interval.make 0 1) Congruence.top
let bool_tainted = vnum ~taint:Taint.Tainted (Interval.make 0 1) Congruence.top

(* A computed plain integer, taken from the shared values when it is one
   of them — a clean constant of the table, the unknown or the unknown
   boolean — so that a re-executed block yields the record it yielded
   before. *)
let num_value taint itv cong =
  let lo = Interval.lo itv and hi = Interval.hi itv in
  if lo = hi then
    if taint == Taint.Clean && lo >= const_lo && lo <= const_hi then
      let v = vconst lo in
      if Congruence.equal v.cong cong then v
      else { base = Bnum; itv; cong; taint }
    else { base = Bnum; itv; cong; taint }
  else if not (Congruence.equal cong Congruence.top) then
    { base = Bnum; itv; cong; taint }
  else if Interval.is_top itv then vunknown ~taint ()
  else if lo = 0 && hi = 1 then
    match taint with Taint.Clean -> bool_clean | Taint.Tainted -> bool_tainted
  else { base = Bnum; itv; cong; taint }

let offset op base a b taint =
  let itv, no_wrap = Interval.binop_report op a.itv b.itv in
  if no_wrap then
    { base; itv; cong = Congruence.binop ~no_wrap op a.cong b.cong; taint }
  else vtop ~taint ()

let vbinop op a b =
  let taint = Taint.join a.taint b.taint in
  match (op, a.base, b.base) with
  | _, Bany, _ | _, _, Bany -> vtop ~taint ()
  | _, Bnum, Bnum ->
      let itv, no_wrap = Interval.binop_report op a.itv b.itv in
      num_value taint itv (Congruence.binop ~no_wrap op a.cong b.cong)
  | I.Add, (Bglobal _ | Bframe), Bnum -> offset op a.base a b taint
  | I.Add, Bnum, (Bglobal _ | Bframe) -> offset op b.base a b taint
  | I.Sub, (Bglobal _ | Bframe), Bnum -> offset op a.base a b taint
  | I.Sub, Bglobal g1, Bglobal g2 when g1 = g2 -> offset op Bnum a b taint
  | I.Sub, Bframe, Bframe -> offset op Bnum a b taint
  | _ -> vtop ~taint ()

let vcmp c a b =
  let taint = Taint.join a.taint b.taint in
  match (a.base, b.base) with
  | Bnum, Bnum ->
      num_value taint (Interval.cmp c a.itv b.itv)
        (Congruence.cmp c a.cong b.cong)
  | _ -> (
      match taint with
      | Taint.Clean -> bool_clean
      | Taint.Tainted -> bool_tainted)

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
          let taint =
            if names c conf.policy.Taint.path_slot then Taint.Tainted
            else Taint.join v.taint a.taint
          in
          if taint == v.taint then v else { v with taint }
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
    (if names r conf.policy.Taint.path_reg && v.taint == Taint.Clean then
       { v with taint = Taint.Tainted }
     else v)

let fset env f t = env.ftaints.(f) <- t

(* The frame map without the slots in [lo, hi]. *)
let forget ~lo ~hi frame =
  Imap.filter_map (fun k v -> if k < lo || k > hi then Some v else None) frame

let store env ~v ~base ~off =
  let a = address env ~base ~off in
  escape env v;
  match a.base with
  | Bframe -> (
      match Interval.is_const a.itv with
      | Some c -> env.frame <- Imap.add c v env.frame
      | None ->
          let lo = Interval.lo a.itv and hi = Interval.hi a.itv in
          env.frame <- forget ~lo ~hi env.frame)
  | Bany -> env.frame <- Imap.empty
  | Bglobal _ | Bnum -> ()

let call conf env ~target ~args ~ret =
  List.iter (fun r -> escape env env.ivals.(r)) args;
  Option.iter (fun r -> escape env env.ivals.(r)) target;
  (* the callee may write through any escaped frame pointer *)
  (match env.escaped with
  | None -> ()
  | Some (lo, hi) ->
      env.frame <- forget ~lo ~hi env.frame);
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
  | I.Fcmp (_, rd, fs1, fs2) -> (
      set conf env rd
        (match Taint.join (ft fs1) (ft fs2) with
        | Taint.Clean -> bool_clean
        | Taint.Tainted -> bool_tainted))
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

(* Joins at a loop header before widening, joins anywhere before the
   safety-net widening, and post-fixpoint narrowing passes. *)
let widen_delay = 3
let fuel = 48
let descend = 2

let analyze ?conf (cfg : Cfg.t) =
  let conf = match conf with Some c -> c | None -> config () in
  let p = cfg.Cfg.proc in
  let n = Array.length p.Proc.blocks in
  let loops = Loops.analyze cfg.Cfg.graph ~root:cfg.Cfg.entry in
  let joins = Array.make n 0 in
  let merge l old env =
    joins.(l) <- joins.(l) + 1;
    let widen =
      (Loops.is_header loops l && joins.(l) > widen_delay)
      || joins.(l) > fuel
    in
    join_env ~widen old env
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
     need one pass each, hence [descend] > 1). *)
  let rpo =
    Dfs.reverse_postorder (Dfs.run cfg.Cfg.graph ~root:cfg.Cfg.entry)
    |> List.filter_map (Cfg.label_of_vertex cfg)
  in
  (* A source's out-state, per entry it last ran from: a source runs once
     per pass, and again only after its entry was replaced. *)
  let outs = Array.make n None in
  let out_of src env =
    match outs.(src) with
    | Some (from, out) when from == env -> out
    | _ ->
        let out = exec_block conf env p.Proc.blocks.(src) in
        outs.(src) <- Some (env, out);
        out
  in
  let join acc env =
    Option.value (join_env ~widen:false acc env) ~default:acc
  in
  for _ = 1 to descend do
    List.iter
      (fun l ->
        if Option.is_some entries.(l) then begin
          let incoming =
            ref (if l = p.Proc.entry then [ entry0 conf p ] else [])
          in
          List.iter
            (fun (e : Digraph.edge) ->
              match Cfg.label_of_vertex cfg e.Digraph.src with
              | Some src -> (
                  match entries.(src) with
                  | Some env -> incoming := out_of src env :: !incoming
                  | None -> ())
              | None -> ())
            (Digraph.in_edges cfg.Cfg.graph l);
          match !incoming with
          | [] -> ()
          | e :: es -> entries.(l) <- Some (List.fold_left join e es)
        end)
      rpo
  done;
  { cfg; conf; entries }

(* ---- client access ---- *)


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
