(* Static verification of instrumented procedures.

   The central device is a forward dataflow over the instrumented CFG of
   the quantity  d(v) = P(v) - E(v),  where P(v) is the path register's
   value on entry to v and E(v) the Ball-Larus Val sum of the original
   edges crossed so far.  For correct instrumentation d is a per-vertex
   constant: 0 everywhere under the simple placement, -theta(v) under a
   chord placement over a spanning tree with potentials theta.  The walk
   therefore needs no knowledge of which placement was used: it checks
   that d is consistent at every join and that each commit's key equals
   the full path encoding, i.e.  d + key_off = Val(final edge).  Both
   checks together are sound and complete for path-sum correctness over
   the (acyclic) instrumented DAG: any disagreement means some real path
   commits a wrong path number, and any wrong path number shows up as a
   disagreement or a failed commit equation. *)

module I = Pp_ir.Instr
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Program = Pp_ir.Program
module Cfg = Pp_ir.Cfg
module Diag = Pp_ir.Diag
module Digraph = Pp_graph.Digraph
module Dfs = Pp_graph.Dfs
module Union_find = Pp_graph.Union_find
module BL = Pp_core.Ball_larus
module Edge_profile = Pp_core.Edge_profile
module Inst = Pp_instrument.Instrument

type ctx = {
  mode : Inst.mode;
  options : Inst.options;
  original : Proc.t;
  instrumented : Proc.t;
  info : Inst.proc_info;
  ocfg : Cfg.t;
  icfg : Cfg.t;
  idfs : Dfs.t;
  iback : bool array;  (** by instrumented edge id *)
  scans : Scan.t array;  (** by instrumented block label *)
  n_orig : int;
  preamble : Block.label;
  mutable diags : Diag.t list;
}

let report ctx d = ctx.diags <- d :: ctx.diags

let errf ctx loc msg =
  report ctx { Diag.severity = Diag.Error; loc; message = msg }

let block_loc ctx l = Diag.block_loc ctx.instrumented.Proc.name l
let instr_loc ctx l at = Diag.instr_loc ctx.instrumented.Proc.name l at
let term_loc ctx l = Diag.term_loc ctx.instrumented.Proc.name l

let is_split ctx l = l >= ctx.n_orig && l <> ctx.preamble

(* ------------------------------------------------------------------ *)
(* Mapping instrumented edges back to original edges.                  *)

type emap =
  | Mentry  (** ENTRY -> preamble: charged the original entry edge's Val *)
  | Minternal  (** preamble->entry block, split->target: charged 0 *)
  | Morig of Digraph.edge  (** an original non-backedge edge *)
  | Mback of Digraph.edge  (** crosses the original backedge *)
  | Munknown

let orig_edge_of ctx ~src ~role ~dst =
  List.find_opt
    (fun (oe : Digraph.edge) ->
      Cfg.role ctx.ocfg oe = role
      &&
      match dst with
      | Some w -> oe.Digraph.dst = w
      | None -> oe.Digraph.dst = ctx.ocfg.Cfg.exit)
    (Digraph.out_edges ctx.ocfg.Cfg.graph src)

let build_edge_map ctx ~orig_backedge =
  let g = ctx.icfg.Cfg.graph in
  let map = Array.make (Digraph.num_edges g) Munknown in
  let classify oe =
    if orig_backedge oe then Mback oe else Morig oe
  in
  Digraph.iter_edges
    (fun (e : Digraph.edge) ->
      let m =
        if e.Digraph.src = ctx.icfg.Cfg.entry then Mentry
        else
          match Cfg.label_of_vertex ctx.icfg e.Digraph.src with
          | None -> Munknown
          | Some ls when ls = ctx.preamble -> Minternal
          | Some ls when is_split ctx ls ->
              (* split -> target: find the original edge via the split's
                 unique predecessor and the branch arm it came from. *)
              (match Digraph.in_edges g ls with
              | [ up ] -> (
                  match
                    ( Cfg.label_of_vertex ctx.icfg up.Digraph.src,
                      Cfg.label_of_vertex ctx.icfg e.Digraph.dst )
                  with
                  | Some u, Some w -> (
                      match
                        orig_edge_of ctx ~src:u
                          ~role:(Cfg.role ctx.icfg up)
                          ~dst:(Some w)
                      with
                      | Some oe ->
                          if orig_backedge oe then Mback oe else Minternal
                      | None -> Munknown)
                  | _ -> Munknown)
              | _ -> Munknown)
          | Some ls -> (
              (* an original block's out-edge *)
              let role = Cfg.role ctx.icfg e in
              if e.Digraph.dst = ctx.icfg.Cfg.exit then
                match orig_edge_of ctx ~src:ls ~role ~dst:None with
                | Some oe -> classify oe
                | None -> Munknown
              else
                match Cfg.label_of_vertex ctx.icfg e.Digraph.dst with
                | None -> Munknown
                | Some w when is_split ctx w -> (
                    (* original edge diverted through a split block *)
                    match Digraph.out_edges g w with
                    | [ down ] -> (
                        match
                          Cfg.label_of_vertex ctx.icfg down.Digraph.dst
                        with
                        | Some w' -> (
                            match
                              orig_edge_of ctx ~src:ls ~role ~dst:(Some w')
                            with
                            | Some oe ->
                                (* the Val is charged on u->split; the
                                   split->target leg carries 0 (or the
                                   backedge, for a split backedge). *)
                                if orig_backedge oe then Minternal
                                else Morig oe
                            | None -> Munknown)
                        | None -> Munknown)
                    | _ -> Munknown)
                | Some w when w = ctx.preamble -> Munknown
                | Some w -> (
                    match orig_edge_of ctx ~src:ls ~role ~dst:(Some w) with
                    | Some oe -> classify oe
                    | None -> Munknown))
      in
      map.(e.Digraph.id) <- m;
      if m = Munknown then
        errf ctx
          (block_loc ctx
             (match Cfg.label_of_vertex ctx.icfg e.Digraph.src with
             | Some l -> l
             | None -> ctx.instrumented.Proc.entry))
          (Printf.sprintf "cannot map instrumented edge %s back to the original CFG"
             (Cfg.vertex_name ctx.icfg e.Digraph.src
             ^ "->"
             ^ Cfg.vertex_name ctx.icfg e.Digraph.dst)))
    g;
  map

(* ------------------------------------------------------------------ *)
(* Path-register dataflow over the instrumented DAG.                   *)

type dstate =
  | Unreached
  | Uninit of int  (** P never written; accumulated expected Val sum *)
  | D of int  (** P - expected sum, a constant *)
  | Reset of int  (** P holds an absolute value (post-commit reset) *)
  | Bad

type commit = {
  cat : int;  (** instruction index *)
  ckey : Scan.sval;
  ctable_ok : bool;
  cmetrics : bool;
  crezero : bool;
  crezero_read : bool;  (** read-after-write follows the re-zero *)
}

(* Assemble the block's path commits from the scanner's raw events. *)
let commits_of_block ctx (sc : Scan.t) =
  let hw = ctx.mode = Inst.Flow_hw in
  let array_commit cell at =
    let table_ok =
      match ctx.info.Inst.table with
      | Inst.Array_table { global; cells } ->
          cell.Scan.cglobal = global && cell.Scan.stride = cells * 8
      | _ -> false
    in
    let metrics =
      List.exists
        (function
          | Scan.Metric_inc { cell = c; off = 8; pic = 0; at = a } ->
              c = cell && a > at
          | _ -> false)
        sc.Scan.events
      && List.exists
           (function
             | Scan.Metric_inc { cell = c; off = 16; pic = 1; at = a } ->
                 c = cell && a > at
             | _ -> false)
           sc.Scan.events
    in
    let rezero_at =
      List.fold_left
        (fun acc ev ->
          match ev with
          | Scan.Hw_zero { at = a } when a > at -> (
              match acc with Some b when b <= a -> acc | _ -> Some a)
          | _ -> acc)
        None sc.Scan.events
    in
    (* The same read-after-write idiom the entry zeroing requires: a
       backedge re-zero without a following PIC read leaves the write
       incomplete, so the next path's readings are garbage. *)
    let rezero_read =
      match rezero_at with
      | None -> false
      | Some z ->
          List.exists
            (function Scan.Hw_read { at = a; _ } -> a > z | _ -> false)
            sc.Scan.events
    in
    {
      cat = at;
      ckey = Scan.Path cell.Scan.key_off;
      ctable_ok = table_ok;
      cmetrics = metrics;
      crezero = rezero_at <> None;
      crezero_read = rezero_read;
    }
  in
  List.filter_map
    (function
      | Scan.Freq_inc { cell; at } -> Some (array_commit cell at)
      | Scan.Path_prof { kind; table; key; at } ->
          let table_ok =
            match (ctx.info.Inst.table, kind) with
            | Inst.Hash_table { id }, `Hash -> table = id && not hw
            | Inst.Hash_table { id }, `Hash_hw -> table = id && hw
            | Inst.Cct_table { id }, `Cct -> table = id
            | _ -> false
          in
          let hw_ok = kind = `Hash_hw in
          Some
            {
              cat = at;
              ckey = key;
              ctable_ok = table_ok;
              cmetrics = hw_ok;
              (* The runtime pseudo-op re-zeroes (and reads) internally. *)
              crezero = hw_ok;
              crezero_read = hw_ok;
            }
      | _ -> None)
    sc.Scan.events

type block_kind =
  | Kret of int  (** expected Val of the return edge *)
  | Kback of Digraph.edge * int * int  (** orig backedge, start, end vals *)
  | Kinterior

let verify_paths ctx (bl : BL.t) =
  let g = ctx.icfg.Cfg.graph in
  (* Backedge correspondence: instrumented back edges must map 1:1 onto the
     numbering's backedges. *)
  let orig_backs = BL.backedges bl in
  let orig_backedge (oe : Digraph.edge) =
    List.exists (fun (b : Digraph.edge) -> b.Digraph.id = oe.Digraph.id) orig_backs
  in
  let emap = build_edge_map ctx ~orig_backedge in
  let iback_edges =
    List.filter (fun (e : Digraph.edge) -> ctx.iback.(e.Digraph.id))
      (Array.to_list (Array.init (Digraph.num_edges g) (Digraph.edge g)))
  in
  let mapped_backs =
    List.filter_map
      (fun (e : Digraph.edge) ->
        match emap.(e.Digraph.id) with
        | Mback oe -> Some oe.Digraph.id
        | _ ->
            errf ctx
              (term_loc ctx
                 (match Cfg.label_of_vertex ctx.icfg e.Digraph.src with
                 | Some l -> l
                 | None -> ctx.preamble))
              "a loop backedge does not correspond to any original backedge";
            None)
      iback_edges
  in
  let ok_bijection =
    List.length mapped_backs = List.length orig_backs
    && List.sort_uniq compare mapped_backs = List.sort compare mapped_backs
    && List.for_all
         (fun (b : Digraph.edge) -> List.mem b.Digraph.id mapped_backs)
         orig_backs
  in
  if not ok_bijection then
    errf ctx
      (Diag.proc_loc ctx.instrumented.Proc.name)
      "instrumented loop backedges do not match the Ball-Larus numbering";
  (* Also: edges the map says cross a backedge must actually be DFS back
     edges, otherwise the DAG walk below would mis-handle them. *)
  Array.iteri
    (fun id m ->
      match m with
      | Mback _ when not ctx.iback.(id) ->
          errf ctx
            (Diag.proc_loc ctx.instrumented.Proc.name)
            "an original backedge became a forward edge after instrumentation"
      | _ -> ())
    emap;
  let entry_val =
    (* the real entry edge (always Val 0 by construction, but charge the
       numbering's actual value rather than assuming) *)
    match Digraph.out_edges ctx.ocfg.Cfg.graph ctx.ocfg.Cfg.entry with
    | e :: _ -> BL.edge_val bl e
    | [] -> 0
  in
  let expected_val (e : Digraph.edge) =
    match emap.(e.Digraph.id) with
    | Mentry -> entry_val
    | Minternal -> 0
    | Morig oe -> BL.edge_val bl oe
    | Mback _ | Munknown -> 0
  in
  (* Block kinds. *)
  let kind_of l =
    let b = ctx.instrumented.Proc.blocks.(l) in
    match b.Block.term with
    | Block.Ret _ -> (
        let ret_edge =
          List.find_opt
            (fun (e : Digraph.edge) -> e.Digraph.dst = ctx.icfg.Cfg.exit)
            (Digraph.out_edges g l)
        in
        match ret_edge with
        | Some e -> (
            match emap.(e.Digraph.id) with
            | Morig oe -> Kret (BL.edge_val bl oe)
            | _ -> Kret 0)
        | None -> Kinterior)
    | Block.Jmp _ | Block.Br _ -> (
        let back =
          List.find_opt
            (fun (e : Digraph.edge) -> ctx.iback.(e.Digraph.id))
            (Digraph.out_edges g l)
        in
        match back with
        | Some e -> (
            if List.length (Digraph.out_edges g l) > 1 then
              errf ctx (term_loc ctx l)
                "a backedge-committing block must have the backedge as its \
                 only successor";
            match emap.(e.Digraph.id) with
            | Mback oe ->
                let s, f = BL.backedge_pseudo_vals bl oe in
                Kback (oe, s, f)
            | _ -> Kinterior)
        | None -> Kinterior)
  in
  let kinds = Array.init (Array.length ctx.instrumented.Proc.blocks) kind_of in
  (* The DAG walk in reverse postorder (a topological order once back edges
     are set aside). *)
  let nv = Digraph.num_vertices g in
  let out_state = Array.make nv Unreached in
  let in_state = Array.make nv Unreached in
  let hw = ctx.mode = Inst.Flow_hw in
  let check_commits l st =
    let sc = ctx.scans.(l) in
    let commits = commits_of_block ctx sc in
    let kind = kinds.(l) in
    (match (kind, commits) with
    | (Kret _ | Kback _), [] ->
        errf ctx (term_loc ctx l) "missing path commit on a path-ending block"
    | (Kret _ | Kback _), _ :: _ :: _ ->
        errf ctx (term_loc ctx l) "multiple path commits on one block"
    | Kinterior, c :: _ ->
        errf ctx (instr_loc ctx l c.cat)
          "path commit in the interior of a path (not a return or backedge)"
    | _ -> ());
    let v_out =
      match kind with Kret v -> Some v | Kback (_, _, f) -> Some f | Kinterior -> None
    in
    List.iter
      (fun c ->
        let loc = instr_loc ctx l c.cat in
        if not c.ctable_ok then
          errf ctx loc "path commit targets the wrong counter table";
        (match (st, c.ckey, v_out) with
        | D d, Scan.Path n, Some v ->
            if d + n <> v then
              errf ctx loc
                (Printf.sprintf
                   "path commit records a wrong path number (off by %d from \
                    the Ball-Larus encoding)"
                   (d + n - v))
        | D _, Scan.Path _, None -> () (* interior: already reported *)
        | D _, Scan.Const _, _ ->
            errf ctx loc "path commit key is a constant, not the path register"
        | D _, _, _ ->
            errf ctx loc "path commit key is not derived from the path register"
        | Uninit _, _, _ ->
            errf ctx loc "path register may be uninitialised at this commit"
        | (Unreached | Bad | Reset _), _, _ -> ());
        if hw then begin
          if not c.cmetrics then
            errf ctx loc "hardware-metric commit does not accumulate both PICs";
          match kind with
          | Kback _ ->
              if not c.crezero then
                errf ctx loc "PICs are not re-zeroed after a backedge commit"
              else if not c.crezero_read then
                errf ctx loc
                  "no PIC read after the backedge re-zero (needed to force \
                   write completion)"
          | Kret _ | Kinterior -> ()
        end)
      commits;
    (* A return block in hw mode must not zero the PICs: the restore of the
       caller's counters follows the commit. *)
    if hw then
      match (kind, ctx.info.Inst.table) with
      | Kret _, Inst.Array_table _ ->
          List.iter
            (function
              | Scan.Hw_zero { at } ->
                  errf ctx (instr_loc ctx l at)
                    "PICs zeroed on a return path (the caller's counters are \
                     restored after the commit)"
              | _ -> ())
            sc.Scan.events
      | _ -> ()
  in
  let transfer l st =
    check_commits l st;
    let sc = ctx.scans.(l) in
    match st with
    | Unreached | Bad -> st
    | Uninit c -> (
        match sc.Scan.p_out with
        | Scan.Prel _ -> Uninit c
        | Scan.Pabs k -> D (k - c)
        | Scan.Ptop ->
            errf ctx (block_loc ctx l) "path register clobbered";
            Bad)
    | Reset _ -> st
    | D d -> (
        match sc.Scan.p_out with
        | Scan.Prel delta -> D (d + delta)
        | Scan.Pabs k -> Reset k
        | Scan.Ptop ->
            errf ctx (block_loc ctx l)
              "path register clobbered by unmodelled code";
            Bad)
  in
  let contribution (e : Digraph.edge) =
    if ctx.iback.(e.Digraph.id) then
      (* Crossing the backedge starts a new path: the seed is the reset
         constant minus the pseudo-start Val.  The reset is block-local and
         absolute, so the source block's summary suffices even though it is
         processed later in topological order. *)
      match emap.(e.Digraph.id) with
      | Mback oe -> (
          let start_v, _ = BL.backedge_pseudo_vals bl oe in
          let sl =
            match Cfg.label_of_vertex ctx.icfg e.Digraph.src with
            | Some l -> l
            | None -> ctx.preamble
          in
          match ctx.scans.(sl).Scan.p_out with
          | Scan.Pabs k -> Some (D (k - start_v))
          | Scan.Prel _ | Scan.Ptop ->
              errf ctx (term_loc ctx sl)
                "backedge does not reset the path register for the next path";
              Some Bad)
      | _ -> None
    else
      match out_state.(e.Digraph.src) with
      | Unreached -> None
      | Uninit c -> Some (Uninit (c + expected_val e))
      | D d -> Some (D (d - expected_val e))
      | Reset _ ->
          let sl =
            match Cfg.label_of_vertex ctx.icfg e.Digraph.src with
            | Some l -> l
            | None -> ctx.preamble
          in
          errf ctx (term_loc ctx sl)
            "path register reset flows out along a forward edge";
          Some Bad
      | Bad -> Some Bad
  in
  List.iter
    (fun v ->
      if v = ctx.icfg.Cfg.entry then begin
        in_state.(v) <- Uninit 0;
        out_state.(v) <- Uninit 0
      end
      else begin
        let contribs =
          List.filter_map contribution (Digraph.in_edges g v)
        in
        let st =
          match contribs with
          | [] -> Unreached
          | first :: rest ->
              if List.for_all (fun s -> s = first) rest then first
              else begin
                (match Cfg.label_of_vertex ctx.icfg v with
                | Some l ->
                    errf ctx (block_loc ctx l)
                      "paths disagree on the path-register offset at this \
                       join (some path would commit a wrong path number)"
                | None ->
                    errf ctx
                      (Diag.proc_loc ctx.instrumented.Proc.name)
                      "paths disagree on the path-register offset at EXIT");
                Bad
              end
        in
        in_state.(v) <- st;
        out_state.(v) <-
          (match Cfg.label_of_vertex ctx.icfg v with
          | Some l -> transfer l st
          | None -> st)
      end)
    (Dfs.reverse_postorder ctx.idfs)

(* ------------------------------------------------------------------ *)
(* PIC (hardware counter) discipline, mode Flow_hw.                    *)

let verify_pic ctx =
  let blocks = ctx.instrumented.Proc.blocks in
  let pre = ctx.scans.(ctx.preamble) in
  let first_zero =
    List.find_map
      (function Scan.Hw_zero { at } -> Some at | _ -> None)
      pre.Scan.events
  in
  if ctx.options.Inst.caller_saves then begin
    (* A3: the callee only zeroes; callers bracket every call site. *)
    (if first_zero = None then
       errf ctx (block_loc ctx ctx.preamble)
         "PICs are not zeroed at procedure entry");
    Array.iter
      (fun (b : Block.t) ->
        let l = b.Block.label in
        let sc = ctx.scans.(l) in
        let ev_at a = List.find_opt
            (fun e ->
              match e with
              | Scan.Hw_read { at; _ } | Scan.Hw_write { at; _ } -> at = a
              | _ -> false)
            sc.Scan.events
        in
        List.iter
          (function
            | Scan.Call_at { at; _ } ->
                let read_ok k d =
                  match ev_at (at - d) with
                  | Some (Scan.Hw_read { counter; _ }) -> counter = k
                  | _ -> false
                in
                let write_ok k d =
                  match ev_at (at + d) with
                  | Some (Scan.Hw_write { counter; src; _ }) ->
                      counter = k
                      && src = Scan.Pic_read (k, at - (3 - d))
                  | _ -> false
                in
                if not (read_ok 0 2 && read_ok 1 1) then
                  errf ctx (instr_loc ctx l at)
                    "call site does not save both PICs before the call \
                     (caller-saves discipline)";
                if not (write_ok 0 1 && write_ok 1 2) then
                  errf ctx (instr_loc ctx l at)
                    "call site does not restore both PICs after the call \
                     (caller-saves discipline)"
            | _ -> ())
          sc.Scan.events;
        (* No entry-save restores should appear at returns. *)
        match b.Block.term with
        | Block.Ret _ ->
            List.iter
              (function
                | Scan.Hw_write { src = Scan.Entry _; at; _ } ->
                    errf ctx (instr_loc ctx l at)
                      "unexpected callee-side PIC restore under caller-saves"
                | _ -> ())
              sc.Scan.events
        | _ -> ())
      blocks
  end
  else begin
    (* Callee-saves (the paper's default, section 3.1): save both counters
       at entry before zeroing; restore them before every return. *)
    let save_reg k =
      List.find_map
        (function
          | Scan.Hw_read { counter; reg; at }
            when counter = k
                 && (match first_zero with Some z -> at < z | None -> true) ->
              Some reg
          | _ -> None)
        pre.Scan.events
    in
    let s0 = save_reg 0 and s1 = save_reg 1 in
    (match first_zero with
    | None ->
        errf ctx (block_loc ctx ctx.preamble)
          "PICs are not zeroed at procedure entry"
    | Some z ->
        if
          not
            (List.exists
               (function Scan.Hw_read { at; _ } -> at > z | _ -> false)
               pre.Scan.events)
        then
          errf ctx (block_loc ctx ctx.preamble)
            "no PIC read after the entry zeroing (needed to force write \
             completion)");
    (match (s0, s1) with
    | Some _, Some _ -> ()
    | _ ->
        errf ctx (block_loc ctx ctx.preamble)
          "PICs are not saved at procedure entry before zeroing");
    (* The save registers must stay untouched until the returns. *)
    (match (s0, s1) with
    | Some r0, Some r1 ->
        Array.iter
          (fun (b : Block.t) ->
            let l = b.Block.label in
            let defs = ctx.scans.(l).Scan.defs in
            let bad r = List.mem r defs in
            let pre_ok r =
              (* in the preamble the save itself defines the register once *)
              l = ctx.preamble
              && List.length (List.filter (fun d -> d = r) defs) = 1
            in
            if (bad r0 && not (pre_ok r0)) || (bad r1 && not (pre_ok r1)) then
              errf ctx (block_loc ctx l)
                "a PIC save register is overwritten before the restore")
          blocks
    | _ -> ());
    Array.iter
      (fun (b : Block.t) ->
        let l = b.Block.label in
        let sc = ctx.scans.(l) in
        match b.Block.term with
        | Block.Ret _ ->
            let commit_at =
              List.fold_left
                (fun acc e ->
                  match e with
                  | Scan.Freq_inc { at; _ } | Scan.Path_prof { at; _ } ->
                      max acc at
                  | _ -> acc)
                (-1) sc.Scan.events
            in
            let restored k sk =
              List.exists
                (function
                  | Scan.Hw_write { counter; src = Scan.Entry r; at } ->
                      counter = k && Some r = sk && at > commit_at
                  | _ -> false)
                sc.Scan.events
            in
            if not (restored 0 s0 && restored 1 s1) then
              errf ctx (term_loc ctx l)
                "PICs are not restored from the entry saves after the final \
                 commit"
        | Block.Jmp _ | Block.Br _ ->
            List.iter
              (function
                | Scan.Hw_write { at; _ } ->
                    errf ctx (instr_loc ctx l at)
                      "PIC restore outside a return block"
                | _ -> ())
              sc.Scan.events)
      blocks
  end

(* No hardware-counter instructions may appear outside Flow_hw mode. *)
let verify_no_hw ctx =
  Array.iter
    (fun (b : Block.t) ->
      List.iter
        (function
          | Scan.Hw_zero { at } | Scan.Hw_read { at; _ } | Scan.Hw_write { at; _ }
            ->
              errf ctx (instr_loc ctx b.Block.label at)
                "hardware-counter instruction outside flow-hw mode"
          | _ -> ())
        ctx.scans.(b.Block.label).Scan.events)
    ctx.instrumented.Proc.blocks

(* ------------------------------------------------------------------ *)
(* CCT discipline, modes Context_hw and Context_flow.                  *)

let verify_cct ctx =
  let metrics = ctx.mode = Inst.Context_hw in
  let blocks = ctx.instrumented.Proc.blocks in
  let events_of l = ctx.scans.(l).Scan.events in
  (* Cct_enter: exactly one, in the preamble, with the right slot count. *)
  Array.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      List.iter
        (function
          | Scan.Cct_op { op = I.Cct_enter { nsites; _ }; at } ->
              if l <> ctx.preamble then
                errf ctx (instr_loc ctx l at) "Cct_enter outside the entry block"
              else if nsites <> ctx.original.Proc.nsites then
                errf ctx (instr_loc ctx l at)
                  "Cct_enter declares a wrong number of call sites"
          | _ -> ())
        (events_of l))
    blocks;
  let enters =
    List.length
      (List.filter
         (function Scan.Cct_op { op = I.Cct_enter _; _ } -> true | _ -> false)
         (events_of ctx.preamble))
  in
  if enters <> 1 then
    errf ctx (block_loc ctx ctx.preamble)
      "procedure entry must push exactly one CCT record";
  if metrics then begin
    let menter =
      List.exists
        (function
          | Scan.Cct_op { op = I.Cct_metric_enter; _ } -> true
          | _ -> false)
        (events_of ctx.preamble)
    in
    if not menter then
      errf ctx (block_loc ctx ctx.preamble)
        "context-hw entry does not record the PIC baseline (Cct_metric_enter)"
  end;
  (* Returns: exactly one Cct_exit per return block, none elsewhere;
     context-hw also accumulates the metric delta before the pop. *)
  Array.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      let exits =
        List.filter_map
          (function
            | Scan.Cct_op { op = I.Cct_exit; at } -> Some at
            | _ -> None)
          (events_of l)
      in
      match b.Block.term with
      | Block.Ret _ -> (
          (match exits with
          | [ _ ] -> ()
          | [] ->
              errf ctx (term_loc ctx l) "return does not pop the CCT record"
          | _ -> errf ctx (term_loc ctx l) "return pops the CCT record twice");
          if metrics then
            let mexit =
              List.find_map
                (function
                  | Scan.Cct_op { op = I.Cct_metric_exit; at } -> Some at
                  | _ -> None)
                (events_of l)
            in
            match (mexit, exits) with
            | Some m, [ e ] when m < e -> ()
            | Some _, [ _ ] ->
                errf ctx (term_loc ctx l)
                  "metric delta recorded after the CCT record was popped"
            | None, _ ->
                errf ctx (term_loc ctx l)
                  "return does not accumulate the PIC delta (Cct_metric_exit)"
            | _, _ -> ())
      | Block.Jmp _ | Block.Br _ ->
          List.iter
            (fun at ->
              errf ctx (instr_loc ctx l at) "Cct_exit outside a return block")
            exits)
    blocks;
  (* Every call is announced with its site just before the transfer. *)
  Array.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      let evs = events_of l in
      let cct_call_at a =
        List.find_map
          (function
            | Scan.Cct_op { op = I.Cct_call { site; indirect }; at }
              when at = a ->
                Some (site, indirect)
            | _ -> None)
          evs
      in
      List.iter
        (function
          | Scan.Call_at { site; indirect; at } -> (
              match cct_call_at (at - 1) with
              | Some (s, i) when s = site && i = indirect -> ()
              | Some _ ->
                  errf ctx (instr_loc ctx l at)
                    "Cct_call announces the wrong call site"
              | None ->
                  errf ctx (instr_loc ctx l at)
                    "call is not announced to the CCT (missing Cct_call)")
          | _ -> ())
        evs)
    blocks;
  (* Paper section 4.3: metric reads on loop backedges (ablation A4). *)
  if metrics && ctx.options.Inst.backedge_metric_reads then begin
    let g = ctx.icfg.Cfg.graph in
    Digraph.iter_edges
      (fun (e : Digraph.edge) ->
        if ctx.iback.(e.Digraph.id) then
          match Cfg.label_of_vertex ctx.icfg e.Digraph.src with
          | Some l ->
              let has =
                List.exists
                  (function
                    | Scan.Cct_op { op = I.Cct_metric_backedge; _ } -> true
                    | _ -> false)
                  (events_of l)
              in
              if not has then
                errf ctx (term_loc ctx l)
                  "loop backedge lacks the mid-procedure metric read"
          | None -> ())
      g
  end

(* ------------------------------------------------------------------ *)
(* Edge profiling (BL94): chord counters and flow conservation.        *)

let verify_edge_profile ctx ~global ~plan =
  let chords = Edge_profile.chords plan in
  let nctr = Edge_profile.num_counters plan in
  (* Where does each chord's increment legally live?  Mirror the editor's
     placement rules: entry edge -> preamble; a sole departure -> appended
     to the source; a sole arrival -> prepended to the destination; a
     branch arm into a join -> a fresh split block. *)
  let split_for (oe : Digraph.edge) =
    let role = Cfg.role ctx.ocfg oe in
    Array.to_list ctx.instrumented.Proc.blocks
    |> List.find_map (fun (b : Block.t) ->
           if not (is_split ctx b.Block.label) then None
           else
             match b.Block.term with
             | Block.Jmp w
               when Some w = Cfg.label_of_vertex ctx.ocfg oe.Digraph.dst -> (
                 (* confirm the split hangs off the chord's source arm *)
                 match
                   Cfg.label_of_vertex ctx.ocfg oe.Digraph.src
                 with
                 | Some u -> (
                     match ctx.instrumented.Proc.blocks.(u).Block.term with
                     | Block.Br (_, tl, fl) ->
                         if
                           (role = Cfg.Branch_true && tl = b.Block.label)
                           || (role = Cfg.Branch_false && fl = b.Block.label)
                         then Some b.Block.label
                         else None
                     | _ -> None)
                 | None -> None)
             | _ -> None)
  in
  let legal_site (oe : Digraph.edge) =
    match Cfg.role ctx.ocfg oe with
    | Cfg.Entry -> Some ctx.preamble
    | Cfg.Jump | Cfg.Return -> Cfg.label_of_vertex ctx.ocfg oe.Digraph.src
    | Cfg.Branch_true | Cfg.Branch_false ->
        if Digraph.in_degree ctx.ocfg.Cfg.graph oe.Digraph.dst = 1 then
          Cfg.label_of_vertex ctx.ocfg oe.Digraph.dst
        else split_for oe
  in
  (* Collect every increment of the plan's counter global. *)
  let incs = ref [] in
  Array.iter
    (fun (b : Block.t) ->
      List.iter
        (function
          | Scan.Ctr_inc { global = g; off; at } when g = global ->
              incs := (off, b.Block.label, at) :: !incs
          | _ -> ())
        ctx.scans.(b.Block.label).Scan.events)
    ctx.instrumented.Proc.blocks;
  let incs = !incs in
  List.iter
    (fun ((oe : Digraph.edge), idx) ->
      let found = List.filter (fun (off, _, _) -> off = idx * 8) incs in
      match found with
      | [] ->
          errf ctx
            (Diag.proc_loc ctx.instrumented.Proc.name)
            (Printf.sprintf "edge counter %d is never incremented" idx)
      | _ :: _ :: _ ->
          errf ctx
            (Diag.proc_loc ctx.instrumented.Proc.name)
            (Printf.sprintf "edge counter %d is incremented more than once" idx)
      | [ (_, l, at) ] -> (
          match legal_site oe with
          | Some site when site = l -> ()
          | _ ->
              errf ctx (instr_loc ctx l at)
                (Printf.sprintf
                   "edge counter %d is incremented on the wrong edge" idx)))
    chords;
  List.iter
    (fun (off, l, at) ->
      if off < 0 || off >= nctr * 8 || off mod 8 <> 0 then
        errf ctx (instr_loc ctx l at)
          "counter increment outside the edge-counter table"
      else if
        not (List.exists (fun (_, idx) -> idx * 8 = off) chords)
      then
        errf ctx (instr_loc ctx l at)
          "counter increment on a spanning-tree edge (should carry no code)")
    incs;
  (* Flow conservation: the uninstrumented edges plus the fictional
     EXIT->ENTRY edge must form a spanning tree, so Kirchhoff's equations
     have a unique solution for the tree-edge counts. *)
  let g = ctx.ocfg.Cfg.graph in
  let uf = Union_find.create (Digraph.num_vertices g) in
  let merges = ref 0 in
  let cyclic = ref false in
  let is_chord (oe : Digraph.edge) =
    List.exists (fun ((c : Digraph.edge), _) -> c.Digraph.id = oe.Digraph.id) chords
  in
  Digraph.iter_edges
    (fun oe ->
      if not (is_chord oe) then
        if Union_find.union uf oe.Digraph.src oe.Digraph.dst then incr merges
        else cyclic := true)
    g;
  if Union_find.union uf ctx.ocfg.Cfg.exit ctx.ocfg.Cfg.entry then incr merges
  else cyclic := true;
  if !cyclic then
    errf ctx
      (Diag.proc_loc ctx.instrumented.Proc.name)
      "uninstrumented edges contain a cycle: edge counts cannot be \
       reconstructed uniquely";
  if !merges <> Digraph.num_vertices g - 1 then
    errf ctx
      (Diag.proc_loc ctx.instrumented.Proc.name)
      "uninstrumented edges do not span the CFG: flow equations are \
       underdetermined"

(* ------------------------------------------------------------------ *)

let skipped ctx =
  match ctx.options.Inst.only with
  | Some names -> not (List.mem ctx.original.Proc.name names)
  | None -> false

let verify_proc ~mode ~options ~original ~instrumented ~(info : Inst.proc_info)
    =
  let icfg = Cfg.of_proc instrumented in
  let idfs = Dfs.run icfg.Cfg.graph ~root:icfg.Cfg.entry in
  let iback = Array.make (Digraph.num_edges icfg.Cfg.graph) false in
  List.iter
    (fun (e : Digraph.edge) -> iback.(e.Digraph.id) <- true)
    (Dfs.back_edges idfs);
  let path_home =
    match info.Inst.path_loc with
    | Some (Pp_instrument.Path_instr.Path_reg r) -> Some (Scan.Home_reg r)
    | Some (Pp_instrument.Path_instr.Path_slot off) -> Some (Scan.Home_slot off)
    | None -> None
  in
  let scans =
    Array.map
      (Scan.run ?path_home ~niregs:instrumented.Proc.niregs)
      instrumented.Proc.blocks
  in
  let ctx =
    {
      mode;
      options;
      original;
      instrumented;
      info;
      ocfg = Cfg.of_proc original;
      icfg;
      idfs;
      iback;
      scans;
      n_orig = Array.length original.Proc.blocks;
      preamble = instrumented.Proc.entry;
      diags = [];
    }
  in
  if skipped ctx then ctx.diags
  else begin
    (match info.Inst.numbering with
    | Some bl -> verify_paths ctx bl
    | None -> ());
    if mode = Inst.Flow_hw then verify_pic ctx else verify_no_hw ctx;
    (match mode with
    | Inst.Context_hw | Inst.Context_flow -> verify_cct ctx
    | Inst.Edge_freq | Inst.Flow_freq | Inst.Flow_hw -> ());
    (match info.Inst.table with
    | Inst.Edge_table { global; plan } -> verify_edge_profile ctx ~global ~plan
    | _ -> ());
    List.rev ctx.diags
  end

let verify_program ~original ~(manifest : Inst.manifest) instrumented =
  let infos = Array.of_list manifest.Inst.infos in
  let diags = ref [] in
  if
    Array.length original.Program.procs
    <> Array.length instrumented.Program.procs
    || Array.length infos <> Array.length original.Program.procs
  then
    diags :=
      [
        Diag.error (Diag.proc_loc instrumented.Program.main)
          "instrumented program has a different set of procedures";
      ]
  else begin
    Array.iteri
      (fun i op ->
        let ip = instrumented.Program.procs.(i) in
        let info = infos.(i) in
        if op.Proc.name <> ip.Proc.name || info.Inst.proc <> op.Proc.name then
          diags :=
            Diag.error (Diag.proc_loc ip.Proc.name)
              "procedure order changed during instrumentation"
            :: !diags
        else
          diags :=
            List.rev_append
              (verify_proc ~mode:manifest.Inst.mode
                 ~options:manifest.Inst.options ~original:op ~instrumented:ip
                 ~info)
              !diags;
        (* counter tables must exist and be large enough *)
        match info.Inst.table with
        | Inst.Array_table { global; cells } -> (
            match Program.find_global instrumented global with
            | Some g when g.Program.size_words >= info.Inst.num_paths * cells
              ->
                ()
            | Some _ ->
                diags :=
                  Diag.error (Diag.proc_loc ip.Proc.name)
                    "path-counter table is too small for the number of paths"
                  :: !diags
            | None ->
                diags :=
                  Diag.error (Diag.proc_loc ip.Proc.name)
                    "path-counter table global is missing"
                  :: !diags)
        | Inst.Edge_table { global; plan } -> (
            match Program.find_global instrumented global with
            | Some g
              when g.Program.size_words
                   >= max 1 (Edge_profile.num_counters plan) ->
                ()
            | Some _ ->
                diags :=
                  Diag.error (Diag.proc_loc ip.Proc.name)
                    "edge-counter table is too small"
                  :: !diags
            | None ->
                diags :=
                  Diag.error (Diag.proc_loc ip.Proc.name)
                    "edge-counter table global is missing"
                  :: !diags)
        | Inst.No_table | Inst.Hash_table _ | Inst.Cct_table _ -> ())
      original.Program.procs
  end;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* pp prove: abstract-interpretation certification.                    *)
(*                                                                     *)
(* Two clients of Absint over the instrumented CFG:                    *)
(*   bounds      - every counter-table access stays inside the table,  *)
(*                 8-byte aligned, and every stored counter is far     *)
(*                 from 63-bit wraparound; every hash/CCT commit key   *)
(*                 is provably within [0, num_paths).                  *)
(*   taint       - instrumentation-introduced state (path register or  *)
(*                 spill slot, PIC readings, table cells) never flows  *)
(*                 into a program-visible register, memory word,       *)
(*                 output, call argument, branch or return value.      *)
(* Zero false alarms by construction on correct instrumentation: the   *)
(* path register is reset to a constant on every backedge, so loop     *)
(* widening never touches it, and the interval join at a commit is     *)
(* exactly the hull of the Ball-Larus path sums.                       *)

(* Counters must stay far below the 63-bit wraparound point. *)
let counter_limit = max_int asr 2

let prove_proc ~budget ~(original : Proc.t) ~(instrumented : Proc.t)
    ~(info : Inst.proc_info) ~tables =
  let state = Inst.state ~original ~instrumented info in
  let policy = Taint.of_state state in
  let aconf = Absint.config ~budget ~policy ~tables () in
  let ai = Absint.analyze ~conf:aconf (Cfg.of_proc instrumented) in
  let diags = ref [] in
  (* An instruction's findings on what it reads are made before it runs
     and reported after those on what it defines. *)
  let uses = ref [] in
  let pname = instrumented.Proc.name in
  let report into loc fmt =
    Format.kasprintf
      (fun message ->
        into := { Diag.severity = Diag.Error; loc; message } :: !into)
      fmt
  in
  let err loc fmt = report uses loc fmt in
  let orig_ireg r = r < original.Proc.niregs in
  let orig_freg f = f < original.Proc.nfregs in
  (* A value is program-invisible ("offending" at a sink) when it is
     tainted or is a pointer into a counter table — the latter catches
     table addresses laundered through clean arithmetic. *)
  let offending (v : Absint.value) =
    Taint.equal v.Absint.taint Taint.Tainted
    ||
    match v.Absint.base with
    | Absint.Bglobal g -> Taint.is_table policy g
    | _ -> false
  in
  let owned_address (a : Absint.value) =
    match a.Absint.base with
    | Absint.Bglobal g -> Taint.is_table policy g
    | Absint.Bframe -> Absint.in_fresh_slots aconf a.Absint.itv
    | _ -> false
  in
  let check_bounds loc ~what (a : Absint.value) ~size_words =
    let bytes = size_words * 8 in
    if not (Congruence.divides 8 a.Absint.cong) then
      err loc "%s is not provably 8-byte aligned (offset %a)" what
        Congruence.pp a.Absint.cong;
    let lo = Interval.lo a.Absint.itv and hi = Interval.hi a.Absint.itv in
    if lo < 0 || hi > bytes - 8 then
      err loc "%s offset %a escapes the %d-byte table" what Interval.pp
        a.Absint.itv bytes
  in
  let table_access env rb off =
    let a = Absint.address env ~base:rb ~off in
    match a.Absint.base with
    | Absint.Bglobal g -> (
        match List.assoc_opt g tables with
        | Some size_words -> Some (a, size_words)
        | None -> None)
    | _ -> None
  in
  let check_args loc env ~args ~fargs ~target =
    List.iter
      (fun r ->
        if offending (Absint.ireg env r) then
          err loc "instrumentation state passed to a call (r%d = %a)" r
            Absint.pp_value (Absint.ireg env r))
      args;
    List.iter
      (fun f ->
        if Taint.equal (Absint.ftaint env f) Taint.Tainted then
          err loc "instrumentation state passed to a call (f%d)" f)
      fargs;
    match target with
    | Some r when offending (Absint.ireg env r) ->
        err loc "indirect-call target depends on instrumentation state"
    | _ -> ()
  in
  (* program-visible register definitions, on the state after [instr] *)
  let check_defs l ~pos post (instr : I.t) =
    let loc = Diag.instr_loc pname l pos in
    List.iter
      (fun rd ->
        if orig_ireg rd then
          let v = Absint.ireg post rd in
          if offending v then
            report diags loc
              "instrumentation state flows into program register r%d (%a)"
              rd Absint.pp_value v)
      (I.idefs instr);
    List.iter
      (fun fd ->
        if
          orig_freg fd
          && Taint.equal (Absint.ftaint post fd) Taint.Tainted
        then
          report diags loc
            "instrumentation state flows into program register f%d" fd)
      (I.fdefs instr);
    diags := !uses @ !diags;
    uses := []
  in
  let check_uses l ~pos env (instr : I.t) =
    let loc = Diag.instr_loc pname l pos in
    match instr with
    | I.Load (_, rb, off) | I.Fload (_, rb, off) -> (
        match table_access env rb off with
        | Some (a, size_words) ->
            check_bounds loc ~what:"table load" a ~size_words
        | None -> ())
    | I.Store (rs, rb, off) -> (
        match table_access env rb off with
        | Some (a, size_words) ->
            check_bounds loc ~what:"table store" a ~size_words;
            let v = Absint.ireg env rs in
            let lo = Interval.lo v.Absint.itv
            and hi = Interval.hi v.Absint.itv in
            if lo < 0 || hi > counter_limit then
              err loc
                "stored counter %a is not provably within [0, 2^61]"
                Absint.pp_value v
        | None ->
            let a = Absint.address env ~base:rb ~off in
            if not (owned_address a) then begin
              if offending (Absint.ireg env rs) then
                err loc
                  "instrumentation state stored to program-visible \
                   memory (%a)"
                  Absint.pp_value (Absint.ireg env rs);
              if Taint.equal a.Absint.taint Taint.Tainted then
                err loc
                  "store through an instrumentation-derived address (%a)"
                  Absint.pp_value a
            end)
    | I.Fstore (fs, rb, off) ->
        let a = Absint.address env ~base:rb ~off in
        if not (owned_address a) then begin
          if Taint.equal (Absint.ftaint env fs) Taint.Tainted then
            err loc
              "instrumentation state stored to program-visible memory \
               (f%d)"
              fs;
          if Taint.equal a.Absint.taint Taint.Tainted then
            err loc "store through an instrumentation-derived address (%a)"
              Absint.pp_value a
        end
    | I.Call { args; fargs; _ } ->
        check_args loc env ~args ~fargs ~target:None
    | I.Callind { target; args; fargs; _ } ->
        check_args loc env ~args ~fargs ~target:(Some target)
    | I.Print_int r ->
        if offending (Absint.ireg env r) then
          err loc "program output depends on instrumentation state (r%d)" r
    | I.Print_float f ->
        if Taint.equal (Absint.ftaint env f) Taint.Tainted then
          err loc "program output depends on instrumentation state (f%d)" f
    | I.Prof
        ( I.Path_commit_hash { path_reg; _ }
        | I.Path_commit_hash_hw { path_reg; _ }
        | I.Path_commit_cct { path_reg; _ } ) ->
        let v = Absint.ireg env path_reg in
        let np = info.Inst.num_paths in
        if info.Inst.numbering = None || np <= 0 then
          err loc "table commit without a path numbering"
        else
          let ok =
            v.Absint.base = Absint.Bnum
            && Interval.lo v.Absint.itv >= 0
            && Interval.hi v.Absint.itv < np
          in
          if not ok then
            err loc "commit key r%d = %a is not provably within [0, %d)"
              path_reg Absint.pp_value v np
    | _ -> ()
  in
  let check_term l env (term : Block.terminator) =
    let loc = Diag.term_loc pname l in
    match term with
    | Block.Br (r, _, _) ->
        if offending (Absint.ireg env r) then
          report diags loc
            "branch condition depends on instrumentation state (r%d)" r
    | Block.Ret (Block.Ret_int r) ->
        if offending (Absint.ireg env r) then
          report diags loc
            "return value depends on instrumentation state (r%d)" r
    | Block.Ret (Block.Ret_float f) ->
        if Taint.equal (Absint.ftaint env f) Taint.Tainted then
          report diags loc
            "return value depends on instrumentation state (f%d)" f
    | Block.Jmp _ | Block.Ret Block.Ret_void -> ()
  in
  Array.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      match
        Absint.iter_block ai l ~post:(check_defs l) (check_uses l)
      with
      | None -> ()
      | Some tenv -> check_term l tenv b.Block.term)
    instrumented.Proc.blocks;
  List.rev !diags

let prove_program ?(budget = 2_000_000_000) ~original
    ~(manifest : Inst.manifest) instrumented =
  let infos = Array.of_list manifest.Inst.infos in
  let diags = ref [] in
  let table_names =
    List.concat_map
      (fun (i : Inst.proc_info) ->
        match i.Inst.table with
        | Inst.Array_table { global; _ } | Inst.Edge_table { global; _ } ->
            [ global ]
        | Inst.No_table | Inst.Hash_table _ | Inst.Cct_table _ -> [])
      manifest.Inst.infos
  in
  (* The original program must be oblivious of the counter tables, or
     table-pointer facts could be smuggled in as ordinary data. *)
  Array.iter
    (fun (p : Proc.t) ->
      Proc.iter_instrs
        (fun l instr ->
          match instr with
          | I.Iconst_sym (_, s) when List.mem s table_names ->
              diags :=
                Diag.error
                  (Diag.block_loc p.Proc.name l)
                  "original program references counter table %s" s
                :: !diags
          | _ -> ())
        p)
    original.Program.procs;
  if
    Array.length original.Program.procs
    <> Array.length instrumented.Program.procs
    || Array.length infos <> Array.length original.Program.procs
  then
    diags :=
      Diag.error
        (Diag.proc_loc instrumented.Program.main)
        "instrumented program has a different set of procedures"
      :: !diags
  else
    Array.iteri
      (fun i op ->
        let ip = instrumented.Program.procs.(i) in
        let info = infos.(i) in
        if op.Proc.name <> ip.Proc.name || info.Inst.proc <> op.Proc.name
        then
          diags :=
            Diag.error (Diag.proc_loc ip.Proc.name)
              "procedure order changed during instrumentation"
            :: !diags
        else
          let tables, missing =
            match info.Inst.table with
            | Inst.Array_table { global; _ }
            | Inst.Edge_table { global; _ } -> (
                match Program.find_global instrumented global with
                | Some g -> ([ (global, g.Program.size_words) ], false)
                | None -> ([], true))
            | Inst.No_table | Inst.Hash_table _ | Inst.Cct_table _ ->
                ([], false)
          in
          if missing then
            diags :=
              Diag.error (Diag.proc_loc ip.Proc.name)
                "counter-table global is missing"
              :: !diags
          else
            diags :=
              List.rev_append
                (prove_proc ~budget ~original:op ~instrumented:ip ~info
                   ~tables)
                !diags)
      original.Program.procs;
  List.rev !diags
