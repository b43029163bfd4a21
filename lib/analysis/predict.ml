module Config = Pp_machine.Config
module Model = Pp_machine.Model
module Ball_larus = Pp_core.Ball_larus
module Digraph = Pp_graph.Digraph
module Loops = Pp_graph.Loops
module Cfg = Pp_ir.Cfg
module Proc = Pp_ir.Proc
module Block = Pp_ir.Block
module Program = Pp_ir.Program
module Layout = Pp_ir.Layout
module I = Pp_ir.Instr
module C = Cachepred

type itv = { lo : int; hi : int option }

type metrics = { cycles : itv; dmiss : itv; imiss : itv; stalls : itv }

type tail = {
  t_cycles : int option;
  t_dmiss : int option;
  t_imiss : int option;
  t_stalls : int option;
}

type exec_bounds = {
  per_exec : metrics;
  dmiss_once : int;
  imiss_once : int;
  cycles_once : int;
  header : Block.label option;
  to_exit : bool;
}

let ( +? ) a b = match (a, b) with Some x, Some y -> Some (x + y) | _ -> None
let scale k = function Some x -> Some (k * x) | None -> None
let max_opt a b = match (a, b) with Some x, Some y -> Some (max x y) | _ -> None

(* ------------------------------------------------------------------ *)
(* Micro events.

   Each instrumented block is compiled once into an ordered array of
   abstract machine events mirroring exactly what Interp/Machine charge
   when the block executes: one icache probe per instruction fetch, one
   dcache probe per load/store (profiling stubs included, with the exact
   footprints of Pp_vm.Runtime), instruction-count contributions, and
   stall sites.  [Mcall] marks a call instruction: the window being
   predicted stops accruing there (the rest of the block belongs to the
   callee's To_exit window) and both caches are havocked.               *)

type micro =
  | Mi of C.access  (** icache probe; [Read] = certain, [Read_maybe] = not *)
  | Mcount of int * int option  (** instructions fetched here: lo, hi *)
  | Md of bool * bool * C.target  (** write?, certain?, dcache target *)
  | Mdslack of int option
      (** possible extra loads of unknown prof lines (unbounded CCT walk):
          adds to the read-miss upper bound and havocs the dcache state *)
  | Mislack of int option
      (** extra possible icache misses when a stub's wrapped fetch lines
          alias in one set (never under the default geometry) *)
  | Mfp of int  (** certain FP stall sites *)
  | Mbr  (** branch-predictor site (Br terminator) *)
  | Mcall of string option  (** callee name; [None] = indirect *)

let d_access_of = function
  | Md (write, certain, tgt) ->
      Some
        (if write then if certain then C.Write tgt else C.Read_maybe tgt
         else if certain then C.Read tgt
         else C.Read_maybe tgt)
  | Mdslack _ | Mcall _ -> Some C.Havoc
  | Mi _ | Mcount _ | Mislack _ | Mfp _ | Mbr -> None

let i_access_of = function
  | Mi a -> Some a
  | Mcall _ -> Some C.Havoc
  | Md _ | Mdslack _ | Mcount _ | Mislack _ | Mfp _ | Mbr -> None

(* ------------------------------------------------------------------ *)
(* The walk's accumulator *)

(* Upper bounds accrue as plain counts, [unbounded] once an unbounded
   contribution was added: the walk adds to one at most micro events,
   and a sum of [int option]s would allocate at each. *)
type acc = {
  mutable ni_lo : int;
  mutable ni_hi : int;  (* instructions *)
  mutable rm_lo : int;
  mutable rm_hi : int;  (* dcache read misses *)
  mutable wm_lo : int;
  mutable wm_hi : int;  (* dcache write misses *)
  mutable im_lo : int;
  mutable im_hi : int;  (* icache misses *)
  mutable st_hi : int;  (* stall cycles; the lower bound is 0 *)
  mutable rm_once : int;
  mutable im_once : int;
}

let unbounded = -1
let add_hi h k = if h < 0 || k < 0 then unbounded else h + k
let hi_of = function Some k -> k | None -> unbounded
let bound h = if h < 0 then None else Some h

(* The walk's state at one block boundary. *)
type snapshot = {
  s_label : Block.label;  (* the block just walked *)
  s_acc : acc;  (* a private copy, never mutated *)
  s_d : C.state;
  s_i : C.state;
}

(* The last walk from one path source: [snaps.(k)] is the state after its
   first [k + 1] blocks, for [k < depth].  A stack, not a trie — memory is
   O(path length). *)
type trail = { mutable snaps : snapshot array; mutable depth : int }

(* ------------------------------------------------------------------ *)
(* Per-procedure context *)

(* Memo keys: (icache?, loop index, line). *)
module Persist_tbl = Hashtbl.Make (struct
  type t = bool * int * int

  let equal (i, l, n) (i', l', n') = Bool.equal i i' && l = l' && n = n'
  let hash (i, l, n) = Int.hash ((((n * 31) + l) * 2) + Bool.to_int i)
end)

module Int_tbl = Hashtbl.Make (Int)

type pctx = {
  pname : string;
  inst : Proc.t;
  n_orig : int;
  ocfg : Cfg.t;  (* original CFG: the numbering's coordinate system *)
  icfg : Cfg.t;  (* instrumented CFG: what actually executes *)
  bl : Ball_larus.t option;
  feas : Feasibility.t option Lazy.t;
      (* built on first ask: only [feasibility] reads it *)
  micros : micro array array;  (* by instrumented label *)
  d_events : C.access array array;
  i_events : C.access array array;
  dsol : C.solution;
  isol : C.solution;
  loops : Loops.t;  (* over the instrumented graph *)
  persist_memo : bool Persist_tbl.t;
      (* (icache?, loop index, line) -> cannot be evicted from the body *)
  trails : trail Int_tbl.t;
      (* by path source: -1 from the entry, else the backedge's id *)
}

type t = {
  config : Config.t;
  layout : Layout.t;  (* of the instrumented program *)
  instrumented : Program.t;
  ctxs : (string, pctx) Hashtbl.t;
  cold_main : string option;  (* main's name when it provably runs on a
                                 fresh machine and is never re-entered *)
  mutable tails : (string, tail) Hashtbl.t option;
  store_bound : int;  (* the machine's stall bounds, per site *)
  fp_bound : int;
  br_bound : int;
}

(* ------------------------------------------------------------------ *)
(* Micro extraction *)

(* Candidate cache lines of a data reference, through Absint's view of
   the address register.  Width is one word: Machine.load/store probe
   exactly the line containing the effective address. *)
let target_of t env ~base ~off =
  let geom = t.config.Config.dcache in
  let v = Absint.address env ~base ~off in
  let bounded lo hi =
    if lo = min_int || hi = max_int || hi < lo then C.Top
    else if hi - lo > 64 * geom.Config.line_bytes then C.Top
    else
      match Model.lines_of_range geom ~addr:lo ~bytes:(hi - lo + 1) with
      | [ l ] -> C.Line l
      | ls when List.length ls <= 64 -> C.Lines ls
      | _ -> C.Top
  in
  match v.Absint.base with
  | Absint.Bany -> C.Top
  | Absint.Bframe -> (
      match Interval.is_const v.Absint.itv with
      | Some o -> C.Frame o
      | None -> C.Top_frame)
  | Absint.Bnum ->
      if Interval.is_top v.Absint.itv then C.Top
      else bounded (Interval.lo v.Absint.itv) (Interval.hi v.Absint.itv)
  | Absint.Bglobal g -> (
      match Program.find_global t.instrumented g with
      | None -> C.Top
      | Some { Program.size_words; _ } ->
          let base_addr = Layout.global_addr t.layout g in
          let glo = base_addr and ghi = base_addr + (size_words * 8) - 1 in
          let lo = Interval.lo v.Absint.itv
          and hi = Interval.hi v.Absint.itv in
          (* Clamp to the global's extent: an out-of-bounds access faults,
             and faulting windows are never measured. *)
          let lo = if lo = min_int then glo else max glo (base_addr + lo) in
          let hi = if hi = max_int then ghi else min ghi (base_addr + hi) in
          if hi < lo then C.Top else bounded lo hi)

(* The linkage slots the CCT stubs touch, as offsets from the probe frame
   (fp + linkage_bytes). *)
let fr_gcsp = -Pp_ir.Layout.linkage_bytes
let fr_pic0 = fr_gcsp + Pp_ir.Layout.word
let fr_pic1 = fr_gcsp + (2 * Pp_ir.Layout.word)

(* Fetch micros of a stub's charge_fetches run: [count] charges wrap
   through the op's [slots] 4-byte code slots starting at [op_addr]. *)
let stub_fetches ~geom_i ~op_addr ~slots emit ~certain ~count_lo ~count_hi =
  let line_of_slot i = Model.line_of geom_i (op_addr + (i mod slots * 4)) in
  let emit_lines n acc =
    let seen = ref [] in
    for i = 0 to n - 1 do
      let l = line_of_slot i in
      if not (List.exists (Int.equal l) !seen) then begin
        seen := l :: !seen;
        emit (Mi (acc l))
      end
    done;
    List.rev !seen
  in
  if certain then begin
    ignore (emit_lines count_lo (fun l -> C.Read (C.Line l)));
    emit (Mcount (count_lo, Some count_lo))
  end
  else begin
    let lines = emit_lines slots (fun l -> C.Read_maybe (C.Line l)) in
    emit (Mcount (0, count_hi));
    (* One [Read_maybe] per distinct line bounds the possible misses only
       when the stub's lines occupy distinct sets (always true when the
       cache has at least as many sets as the stub spans lines). *)
    let alias =
      List.exists
        (fun l ->
          List.exists
            (fun l' -> l <> l' && Model.same_set geom_i l l')
            lines)
        lines
    in
    if alias then emit (Mislack count_hi)
  end

let prof_micros t ~op_addr ~wbound emit op =
  let geom_i = t.config.Config.icache in
  let slots = I.slots (I.Prof op) in
  let fixed count =
    stub_fetches ~geom_i ~op_addr ~slots emit ~certain:true ~count_lo:count
      ~count_hi:(Some count)
  in
  let rd tgt = emit (Md (false, true, tgt)) in
  let wr tgt = emit (Md (true, true, tgt)) in
  let accumulate () =
    (* Runtime.accumulate_deltas: two read-modify-writes in the record. *)
    rd C.Top_prof;
    wr C.Top_prof;
    rd C.Top_prof;
    wr C.Top_prof
  in
  match op with
  | I.Cct_call _ -> fixed I.cct_call_slots
  | I.Cct_enter { nsites; _ } ->
      (* Load of the parent's callee slot, the base and per-ancestor walk
         charges, the walked headers, conditional record initialisation,
         then the three unconditional stores. *)
      rd C.Top_prof;
      fixed I.cct_enter_base;
      stub_fetches ~geom_i ~op_addr ~slots emit ~certain:false ~count_lo:0
        ~count_hi:(scale I.cct_enter_per_ancestor wbound);
      (match wbound with
      | Some w ->
          for _ = 1 to w do
            emit (Md (false, false, C.Top_prof))
          done
      | None -> emit (Mdslack None));
      for _ = 1 to Pp_ir.Layout.record_words nsites do
        emit (Md (true, false, C.Top_prof))
      done;
      wr C.Top_prof;
      wr C.Top_prof;
      wr (C.Frame fr_gcsp)
  | I.Cct_exit ->
      fixed I.cct_exit_slots;
      rd (C.Frame fr_gcsp)
  | I.Cct_metric_enter ->
      fixed I.metric_enter_slots;
      wr (C.Frame fr_pic0);
      wr (C.Frame fr_pic1)
  | I.Cct_metric_exit ->
      fixed I.metric_exit_slots;
      rd (C.Frame fr_pic0);
      rd (C.Frame fr_pic1);
      accumulate ()
  | I.Cct_metric_backedge ->
      fixed I.metric_backedge_slots;
      rd (C.Frame fr_pic0);
      rd (C.Frame fr_pic1);
      accumulate ();
      wr (C.Frame fr_pic0);
      wr (C.Frame fr_pic1)
  | I.Path_commit_hash _ ->
      fixed I.commit_hash_slots;
      rd C.Top_prof;
      wr C.Top_prof
  | I.Path_commit_hash_hw _ ->
      fixed I.commit_hash_hw_slots;
      rd C.Top_prof;
      wr C.Top_prof;
      rd C.Top_prof;
      wr C.Top_prof
  | I.Path_commit_cct _ ->
      fixed I.commit_cct_slots;
      rd C.Top_prof;
      wr C.Top_prof

let instr_micros t ~wbound ~env ~addr emit instr =
  let geom_i = t.config.Config.icache in
  (* The interpreter fetch of the instruction itself. *)
  emit (Mi (C.Read (C.Line (Model.line_of geom_i addr))));
  emit (Mcount (1, Some 1));
  let tgt base off =
    match env with
    | Some env -> target_of t env ~base ~off
    | None -> C.Top
  in
  match instr with
  | I.Load (_, rb, off) -> emit (Md (false, true, tgt rb off))
  | I.Fload (_, rb, off) -> emit (Md (false, true, tgt rb off))
  | I.Store (_, rb, off) -> emit (Md (true, true, tgt rb off))
  | I.Fstore (_, rb, off) ->
      emit (Mfp 1);
      emit (Md (true, true, tgt rb off))
  | I.Fmov _ | I.Ftoi _ | I.Print_float _ -> emit (Mfp 1)
  | I.Fbinop _ -> emit (Mfp 1)
  | I.Fcmp _ -> emit (Mfp 2)
  | I.Call { callee; fargs; _ } ->
      emit (Mfp (List.length fargs));
      emit (Mcall (Some callee))
  | I.Callind { fargs; _ } ->
      emit (Mfp (List.length fargs));
      emit (Mcall None)
  | I.Prof op -> prof_micros t ~op_addr:addr ~wbound emit op
  | I.Iconst _ | I.Iconst_sym _ | I.Fconst _ | I.Imov _ | I.Ibinop _
  | I.Ibinop_imm _ | I.Icmp _ | I.Icmp_imm _ | I.Itof _ | I.Hwread _
  | I.Hwzero | I.Hwwrite _ | I.Frameaddr _ | I.Print_int _ ->
      ()

let block_micros t ~wbound ~ab (inst : Proc.t) (b : Block.t) =
  let buf = ref [] in
  let emit m = buf := m :: !buf in
  let addr_of index =
    Layout.instr_addr t.layout ~proc:inst.Proc.name ~label:b.Block.label ~index
  in
  let replayed =
    Absint.iter_block ab b.Block.label (fun ~pos env instr ->
        instr_micros t ~wbound ~env:(Some env) ~addr:(addr_of pos) emit instr)
  in
  (match replayed with
  | Some _ -> ()
  | None ->
      (* Unreached by the abstract interpreter (it proved the block dead,
         or gave up): extract without address information. *)
      List.iteri
        (fun pos instr ->
          instr_micros t ~wbound ~env:None ~addr:(addr_of pos) emit instr)
        b.Block.instrs);
  let taddr = addr_of (List.length b.Block.instrs) in
  emit (Mi (C.Read (C.Line (Model.line_of t.config.Config.icache taddr))));
  emit (Mcount (1, Some 1));
  (match b.Block.term with
  | Block.Br _ -> emit Mbr
  | Block.Ret (Block.Ret_float _) -> emit (Mfp 1)
  | Block.Jmp _ | Block.Ret _ -> ());
  Array.of_list (List.rev !buf)

(* ------------------------------------------------------------------ *)
(* The walk: fold micros over the two abstract cache states, counting
   certified interval contributions for one window execution. *)

let acc_create () =
  {
    ni_lo = 0;
    ni_hi = 0;
    rm_lo = 0;
    rm_hi = 0;
    wm_lo = 0;
    wm_hi = 0;
    im_lo = 0;
    im_hi = 0;
    st_hi = 0;
    rm_once = 0;
    im_once = 0;
  }

type walk_state = { mutable d : C.state; mutable i : C.state }

(* [persist] answers "is a miss of this line chargeable once per loop
   entry instead of once per execution?" — set only while walking the
   loop-body blocks of an After_backedge path. *)
let step_micro t acc ws ~live ~persist m =
  match m with
  | Mi a ->
      let gi = t.config.Config.icache in
      if not live then ws.i <- C.step gi ws.i a
      else begin
        let c, next = C.classify_step gi ws.i a in
        ws.i <- next;
        match a with
        | C.Read tgt -> (
            match c with
            | C.Hit -> ()
            | C.Miss ->
                acc.im_lo <- acc.im_lo + 1;
                acc.im_hi <- add_hi acc.im_hi 1
            | C.Unknown ->
                if persist ~icache:true tgt then
                  acc.im_once <- acc.im_once + 1
                else acc.im_hi <- add_hi acc.im_hi 1)
        | C.Read_maybe _ ->
            if c <> C.Hit then acc.im_hi <- add_hi acc.im_hi 1
        | C.Write _ | C.Havoc -> ()
      end
  | Mcount (lo, hi) ->
      if live then begin
        acc.ni_lo <- acc.ni_lo + lo;
        acc.ni_hi <- add_hi acc.ni_hi (hi_of hi)
      end
  | Md (write, certain, tgt) ->
      let gd = t.config.Config.dcache in
      (* [classify] reads only the target, so the stepped access serves *)
      let a =
        if not certain then C.Read_maybe tgt
        else if write then C.Write tgt
        else C.Read tgt
      in
      if not live then ws.d <- C.step gd ws.d a
      else begin
        let c, next = C.classify_step gd ws.d a in
        ws.d <- next;
        if write then begin
          acc.st_hi <- add_hi acc.st_hi t.store_bound;
          (match (certain, c) with
          | true, C.Miss ->
              acc.wm_lo <- acc.wm_lo + 1;
              acc.wm_hi <- add_hi acc.wm_hi 1
          | true, C.Unknown | false, (C.Miss | C.Unknown) ->
              acc.wm_hi <- add_hi acc.wm_hi 1
          | _, C.Hit -> ())
        end
        else
          match (certain, c) with
          | true, C.Miss ->
              acc.rm_lo <- acc.rm_lo + 1;
              acc.rm_hi <- add_hi acc.rm_hi 1
          | true, C.Unknown ->
              if persist ~icache:false tgt then
                acc.rm_once <- acc.rm_once + 1
              else acc.rm_hi <- add_hi acc.rm_hi 1
          | false, (C.Miss | C.Unknown) -> acc.rm_hi <- add_hi acc.rm_hi 1
          | _, C.Hit -> ()
      end
  | Mdslack n ->
      if live then acc.rm_hi <- add_hi acc.rm_hi (hi_of n);
      ws.d <- C.step t.config.Config.dcache ws.d C.Havoc
  | Mislack n -> if live then acc.im_hi <- add_hi acc.im_hi (hi_of n)
  | Mfp n -> if live then acc.st_hi <- add_hi acc.st_hi (n * t.fp_bound)
  | Mbr -> if live then acc.st_hi <- add_hi acc.st_hi t.br_bound
  | Mcall _ ->
      ws.d <- C.step t.config.Config.dcache ws.d C.Havoc;
      ws.i <- C.step t.config.Config.icache ws.i C.Havoc

let no_persist ~icache:_ _ = false

(* Walk one block.  Accrual stops at a call (the block's remaining events
   belong to the callee's To_exit window) and resumes at the next block —
   the states keep stepping throughout so the caches stay sound. *)
let walk_block t acc ws ~persist micros =
  let live = ref true in
  for k = 0 to Array.length micros - 1 do
    let m = micros.(k) in
    step_micro t acc ws ~live:!live ~persist m;
    match m with Mcall _ -> live := false | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Instrumented-CFG navigation *)

let same_role a b =
  match (a, b) with
  | Cfg.Jump, Cfg.Jump
  | Cfg.Branch_true, Cfg.Branch_true
  | Cfg.Branch_false, Cfg.Branch_false ->
      true
  | _ -> false

(* Follow fresh (label >= n_orig) single-successor blocks until an
   original label; returns the fresh chain in execution order. *)
let follow_fresh ctx start =
  let rec go acc l fuel =
    if l < ctx.n_orig || fuel = 0 then List.rev acc
    else
      match (Proc.block ctx.inst l).Block.term with
      | Block.Jmp next -> go (l :: acc) next (fuel - 1)
      | Block.Br _ | Block.Ret _ -> List.rev (l :: acc)
  in
  go [] start 16

(* Fresh blocks the instrumenter placed on original edge [e] (empty when
   the edge survived intact or its code was merged into an endpoint). *)
let split_chain ctx (e : Digraph.edge) =
  let role = Cfg.role ctx.ocfg e in
  let arm =
    List.find_opt
      (fun ie -> same_role (Cfg.role ctx.icfg ie) role)
      (Digraph.out_edges ctx.icfg.Cfg.graph e.Digraph.src)
  in
  match arm with
  | Some ie when ie.Digraph.dst >= ctx.n_orig -> follow_fresh ctx ie.Digraph.dst
  | Some _ | None -> []

(* The abstract cache states in force when an After_backedge window opens:
   the out-state of the last block executed before the header's probe. *)
let backedge_states ctx (e : Digraph.edge) =
  let last =
    match List.rev (split_chain ctx e) with
    | l :: _ -> l
    | [] -> e.Digraph.src
  in
  (ctx.dsol.C.block_out.(last), ctx.isol.C.block_out.(last), last)

(* ------------------------------------------------------------------ *)
(* Persistence *)

let loop_of_header ctx header =
  let ls = Loops.loops ctx.loops in
  let rec find i =
    if i >= Array.length ls then None
    else if ls.(i).Loops.header = header then Some i
    else find (i + 1)
  in
  find 0

let body_blocks ctx li =
  List.filter
    (fun v -> v < Proc.num_blocks ctx.inst)
    (Loops.loops ctx.loops).(li).Loops.body

let persistent_in ctx ~icache geom li line =
  match Persist_tbl.find_opt ctx.persist_memo (icache, li, line) with
  | Some r -> r
  | None ->
      let events = if icache then ctx.i_events else ctx.d_events in
      let body_events = List.map (fun v -> events.(v)) (body_blocks ctx li) in
      let r = C.persistent geom ~body_events (C.Line line) in
      Persist_tbl.add ctx.persist_memo (icache, li, line) r;
      r

(* ------------------------------------------------------------------ *)
(* Context construction *)

let has_numbering ctx = Option.is_some ctx.bl

let runs_cold t proc =
  match t.cold_main with Some m -> String.equal m proc | None -> false

let build_pctx t ~wbound (orig : Proc.t) (inst : Proc.t) =
  let ocfg = Cfg.of_proc orig in
  let icfg = Cfg.of_proc inst in
  let bl = match Ball_larus.build ocfg with
    | bl -> Some bl
    | exception Ball_larus.Unsupported _ -> None
  in
  let feas = lazy (Option.map (fun bl -> Feasibility.analyze ocfg bl) bl) in
  let ab = Absint.analyze icfg in
  let micros =
    Array.map (fun b -> block_micros t ~wbound ~ab inst b) inst.Proc.blocks
  in
  let pick f = Array.map (fun ms -> Array.of_list (List.filter_map f (Array.to_list ms))) micros in
  let d_events = pick d_access_of and i_events = pick i_access_of in
  let nblocks = Proc.num_blocks inst in
  let succs b = Block.successors (Proc.block inst b) in
  let cold = runs_cold t orig.Proc.name in
  let dsol =
    C.solve t.config.Config.dcache ~nblocks ~entry:inst.Proc.entry ~succs
      ~events:(fun b -> d_events.(b)) ~cold
  in
  let isol =
    C.solve t.config.Config.icache ~nblocks ~entry:inst.Proc.entry ~succs
      ~events:(fun b -> i_events.(b)) ~cold
  in
  let loops = Loops.analyze icfg.Cfg.graph ~root:icfg.Cfg.entry in
  {
    pname = orig.Proc.name;
    inst;
    n_orig = Proc.num_blocks orig;
    ocfg;
    icfg;
    bl;
    feas;
    micros;
    d_events;
    i_events;
    dsol;
    isol;
    loops;
    persist_memo = Persist_tbl.create 32;
    trails = Int_tbl.create 8;
  }

let create ?(config = Config.default) ~original ~instrumented () =
  let config = Config.validate config in
  let layout = Layout.build instrumented in
  (* Worst-case CCT ancestor walk of Cct_enter: bounded by the deepest
     possible context, finite only when the call graph is acyclic and has
     no indirect calls. *)
  let procs = original.Program.procs in
  let nprocs = Array.length procs in
  let calls = Digraph.create () in
  ignore (Digraph.add_vertices calls nprocs);
  let has_callind = ref false in
  Array.iteri
    (fun i p ->
      Proc.iter_instrs
        (fun _ instr ->
          match instr with
          | I.Callind _ -> has_callind := true
          | I.Call { callee; _ } ->
              Option.iter
                (fun j -> ignore (Digraph.add_edge calls i j))
                (Program.proc_index original callee)
          | _ -> ())
        p)
    procs;
  let wbound =
    if !has_callind || not (Pp_graph.Topo.is_acyclic calls) then None
    else Some (nprocs + 1)
  in
  let main_called =
    !has_callind
    || Digraph.in_degree calls
         (Option.get (Program.proc_index original original.Program.main))
       > 0
  in
  let cold_main = if main_called then None else Some original.Program.main in
  let t =
    {
      config;
      layout;
      instrumented;
      ctxs = Hashtbl.create 16;
      cold_main;
      tails = None;
      store_bound = Model.store_stall_bound config;
      fp_bound = Model.fp_stall_bound config;
      br_bound = Model.mispredict_bound config;
    }
  in
  Array.iter
    (fun (orig : Proc.t) ->
      match Program.find_proc instrumented orig.Proc.name with
      | None -> ()
      | Some inst ->
          Hashtbl.replace t.ctxs orig.Proc.name (build_pctx t ~wbound orig inst))
    original.Program.procs;
  t

let ctx_exn t proc =
  match Hashtbl.find_opt t.ctxs proc with
  | Some ctx -> ctx
  | None -> invalid_arg (Printf.sprintf "Predict: unknown procedure %s" proc)

let numbering t proc = (ctx_exn t proc).bl
let feasibility t proc = Lazy.force (ctx_exn t proc).feas

let procs t =
  Hashtbl.fold (fun n ctx acc -> if has_numbering ctx then n :: acc else acc)
    t.ctxs []
  |> List.sort String.compare

let cache_solutions t proc =
  let ctx = ctx_exn t proc in
  [
    (t.config.Config.dcache, ctx.d_events, ctx.dsol);
    (t.config.Config.icache, ctx.i_events, ctx.isol);
  ]

(* ------------------------------------------------------------------ *)
(* Tails: the caller-side segment between a procedure's return and the
   next block probe, charged to the returning procedure's last window. *)

type segment = {
  seg_callee : string option;  (* which callee's tail this feeds *)
  seg_cost : tail;
  seg_chain : string option;  (* segment runs off a Ret: add this proc's tail *)
}

let segment_cost t ctx ~block ~start ~stop =
  let acc = acc_create () in
  let ws = { d = C.entry ~cold:false; i = C.entry ~cold:false } in
  for k = start to stop do
    step_micro t acc ws ~live:true ~persist:no_persist ctx.micros.(block).(k)
  done;
  {
    t_cycles =
      bound acc.ni_hi
      +? scale t.config.Config.icache_miss_penalty (bound acc.im_hi)
      +? scale t.config.Config.dcache_miss_penalty (bound acc.rm_hi)
      +? bound acc.st_hi;
    t_dmiss = bound acc.rm_hi +? bound acc.wm_hi;
    t_imiss = bound acc.im_hi;
    t_stalls = bound acc.st_hi;
  }

let segments_of_ctx t ctx =
  let segs = ref [] in
  Array.iteri
    (fun label ms ->
      let n = Array.length ms in
      let term = (Proc.block ctx.inst label).Block.term in
      let rec scan i =
        if i < n then
          match ms.(i) with
          | Mcall callee ->
              (* The segment runs to the next call's [Mcall] (the next
                 callee's probe fires right after its fetch/arg micros) or
                 through the terminator. *)
              let rec find_end j =
                if j >= n then (n - 1, None)
                else
                  match ms.(j) with
                  | Mcall _ -> (j, Some `Call)
                  | _ -> find_end (j + 1)
              in
              let stop, ended = find_end (i + 1) in
              let chain =
                match (ended, term) with
                | None, Block.Ret _ -> Some ctx.pname
                | _ -> None
              in
              segs :=
                {
                  seg_callee = callee;
                  seg_cost = segment_cost t ctx ~block:label ~start:(i + 1) ~stop;
                  seg_chain = chain;
                }
                :: !segs;
              scan (i + 1)
          | _ -> scan (i + 1)
      in
      scan 0)
    ctx.micros;
  !segs

let tail_zero = { t_cycles = Some 0; t_dmiss = Some 0; t_imiss = Some 0; t_stalls = Some 0 }
let tail_top = { t_cycles = None; t_dmiss = None; t_imiss = None; t_stalls = None }

let tail_add a b =
  {
    t_cycles = a.t_cycles +? b.t_cycles;
    t_dmiss = a.t_dmiss +? b.t_dmiss;
    t_imiss = a.t_imiss +? b.t_imiss;
    t_stalls = a.t_stalls +? b.t_stalls;
  }

let tail_max a b =
  {
    t_cycles = max_opt a.t_cycles b.t_cycles;
    t_dmiss = max_opt a.t_dmiss b.t_dmiss;
    t_imiss = max_opt a.t_imiss b.t_imiss;
    t_stalls = max_opt a.t_stalls b.t_stalls;
  }

let tail_equal a b = a = b

let compute_tails t =
  let all_segs =
    Hashtbl.fold (fun _ ctx acc -> segments_of_ctx t ctx @ acc) t.ctxs []
  in
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) t.ctxs [] in
  let tails = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace tails n tail_zero) names;
  let round () =
    List.fold_left
      (fun changed n ->
        let cur = Hashtbl.find tails n in
        let next =
          List.fold_left
            (fun best s ->
              let applies =
                match s.seg_callee with Some c -> c = n | None -> true
              in
              if not applies then best
              else
                let chained =
                  match s.seg_chain with
                  | None -> s.seg_cost
                  | Some q ->
                      tail_add s.seg_cost
                        (Option.value ~default:tail_top
                           (Hashtbl.find_opt tails q))
                in
                tail_max best chained)
            cur all_segs
        in
        if tail_equal next cur then changed
        else begin
          Hashtbl.replace tails n next;
          true
        end)
      false names
  in
  let rec iterate k =
    if round () then
      if k = 0 then
        (* Still growing: a recursive return chain makes the caller-side
           continuation unbounded. *)
        List.iter (fun n -> Hashtbl.replace tails n tail_top) names
      else iterate (k - 1)
  in
  iterate (List.length names + 2);
  tails

let tail_bound t proc =
  let tails =
    match t.tails with
    | Some tb -> tb
    | None ->
        let tb = compute_tails t in
        t.tails <- Some tb;
        tb
  in
  match Hashtbl.find_opt tails proc with
  | Some tl -> tl
  | None -> invalid_arg (Printf.sprintf "Predict: unknown procedure %s" proc)

(* ------------------------------------------------------------------ *)
(* Per-path prediction *)

let copy_acc a = { a with ni_lo = a.ni_lo }

(* Walk a path's blocks from the longest prefix it shares with the last
   walk from the same source.  The state after a prefix depends only on
   the source and the prefix, so the answer does not depend on the order
   of the queries; a Ball–Larus sum order is a DFS order of the path DAG,
   so consecutive sums share long prefixes. *)
let walk_shared t ctx ~key ~dstate ~istate ~persist labels =
  let tr =
    match Int_tbl.find_opt ctx.trails key with
    | Some tr -> tr
    | None ->
        let tr = { snaps = [||]; depth = 0 } in
        Int_tbl.add ctx.trails key tr;
        tr
  in
  let rec shared k = function
    | l :: rest when k < tr.depth && tr.snaps.(k).s_label = l ->
        shared (k + 1) rest
    | rest -> (k, rest)
  in
  let k, rest = shared 0 labels in
  let acc, ws =
    if k = 0 then (acc_create (), { d = dstate; i = istate })
    else
      let s = tr.snaps.(k - 1) in
      (copy_acc s.s_acc, { d = s.s_d; i = s.s_i })
  in
  tr.depth <- k;
  List.iter
    (fun l ->
      walk_block t acc ws ~persist:(persist l) ctx.micros.(l);
      let snap =
        { s_label = l; s_acc = copy_acc acc; s_d = ws.d; s_i = ws.i }
      in
      if tr.depth = Array.length tr.snaps then
        tr.snaps <-
          Array.append tr.snaps (Array.make (Int.max 8 tr.depth) snap);
      tr.snaps.(tr.depth) <- snap;
      tr.depth <- tr.depth + 1)
    rest;
  acc

let path_labels ctx (trav : Ball_larus.traversal) =
  let p = trav.Ball_larus.path in
  let blocks = p.Ball_larus.blocks in
  let inner_edges =
    List.filter
      (fun (e : Digraph.edge) ->
        e.Digraph.src < ctx.n_orig && e.Digraph.dst < ctx.n_orig)
      trav.Ball_larus.real_edges
  in
  let prefix =
    match p.Ball_larus.source with
    | Ball_larus.From_entry -> follow_fresh ctx ctx.inst.Proc.entry
    | Ball_larus.After_backedge _ -> []
  in
  let rec weave acc blocks edges =
    match (blocks, edges) with
    | [], _ -> List.rev acc
    | [ b ], [] -> List.rev (b :: acc)
    | b :: (next :: _ as rest), e :: es
      when e.Digraph.src = b && e.Digraph.dst = next ->
        weave (List.rev_append (split_chain ctx e) (b :: acc)) rest es
    | b :: rest, es ->
        (* Missing or misaligned edge information: keep the blocks, lose
           only split precision. *)
        weave (b :: acc) rest es
  in
  let main = weave [] blocks inner_edges in
  let suffix =
    match p.Ball_larus.sink with
    | Ball_larus.To_exit -> []
    | Ball_larus.Into_backedge e -> split_chain ctx e
  in
  prefix @ main @ suffix

let predict t ~proc ~sum =
  let ctx = ctx_exn t proc in
  let bl =
    match ctx.bl with
    | Some bl -> bl
    | None ->
        invalid_arg (Printf.sprintf "Predict: %s has no path numbering" proc)
  in
  let trav = Ball_larus.traverse bl sum in
  let path = trav.Ball_larus.path in
  let labels = path_labels ctx trav in
  let cold = runs_cold t proc in
  let dstate, istate, header, loop =
    match path.Ball_larus.source with
    | Ball_larus.From_entry ->
        (C.entry ~cold, C.entry ~cold, None, None)
    | Ball_larus.After_backedge e ->
        let d, i, _ = backedge_states ctx e in
        let h = e.Digraph.dst in
        (d, i, Some h, loop_of_header ctx h)
  in
  (* [persist l], resolved once per block [l]. *)
  let persist =
    match loop with
    | None -> fun _ -> no_persist
    | Some li ->
        let persistent ~icache = function
          | C.Line line ->
              let geom =
                if icache then t.config.Config.icache
                else t.config.Config.dcache
              in
              persistent_in ctx ~icache geom li line
          | _ -> false
        in
        fun l ->
          if Loops.in_loop ctx.loops li l then persistent else no_persist
  in
  let key =
    match path.Ball_larus.source with
    | Ball_larus.From_entry -> -1
    | Ball_larus.After_backedge e -> e.Digraph.id
  in
  let acc = walk_shared t ctx ~key ~dstate ~istate ~persist labels in
  let mk lo hi = { lo; hi } in
  let dc_pen = t.config.Config.dcache_miss_penalty in
  let ic_pen = t.config.Config.icache_miss_penalty in
  let cycles =
    mk
      (acc.ni_lo + (ic_pen * acc.im_lo) + (dc_pen * acc.rm_lo))
      (bound acc.ni_hi
      +? scale ic_pen (bound acc.im_hi)
      +? scale dc_pen (bound acc.rm_hi)
      +? bound acc.st_hi)
  in
  {
    per_exec =
      {
        cycles;
        dmiss =
          mk (acc.rm_lo + acc.wm_lo) (bound acc.rm_hi +? bound acc.wm_hi);
        imiss = mk acc.im_lo (bound acc.im_hi);
        stalls = mk 0 (bound acc.st_hi);
      };
    dmiss_once = acc.rm_once;
    imiss_once = acc.im_once;
    cycles_once = (dc_pen * acc.rm_once) + (ic_pen * acc.im_once);
    header;
    to_exit = path.Ball_larus.sink = Ball_larus.To_exit;
  }
