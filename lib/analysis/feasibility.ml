(* Static path feasibility for Ball–Larus numberings.

   Two layers of evidence, both derived from {!Constprop}:

   - edge infeasibility: a path crossing a CFG edge the conditional
     constant propagation proved never-executable cannot occur;

   - branch correlation: replaying a path's straight-line code symbolically
     (starting from Top, or from the constant-propagation exit state of the
     backedge source for paths that begin after a backedge) may show that a
     branch condition is a constant contradicting the arm the path takes —
     e.g. [t = a > 0 ? 1 : 0; if (t > 0)] kills the mixed arms.

   A dead edge anywhere on a path beats a contradiction; within each kind
   the first in path order names the verdict.

   Both are over-approximations of concrete execution, so a path flagged
   infeasible can never be observed dynamically: pruning is sound. *)

module Cfg = Pp_ir.Cfg
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Digraph = Pp_graph.Digraph
module Ball_larus = Pp_core.Ball_larus

type verdict =
  | Feasible
  | Infeasible_edge of Digraph.edge
      (* crosses a never-executable CFG edge *)
  | Infeasible_branch of { block : Block.label; value : int }
      (* a constant branch condition contradicts the arm the path takes *)

type t = {
  bl : Ball_larus.t;
  cp : Constprop.t;
  table : verdict array option;  (* per path sum, when enumerated *)
}

(* The largest path table classified up front. *)
let max_enumerate = 4096

(* Every sum's verdict from one depth-first walk of the Ball–Larus DAG,
   once from ENTRY and once from each backedge target, so paths that
   share a prefix share its replay.  [replay v sum state] visits the
   paths through block vertex [v] whose steps so far add up to [sum];
   [state], the register state on entry to [v], is the call's own.  A
   dead edge settles every sum below it at once.  Below a contradiction
   the replay stops, and [scan] only looks on for a dead edge, which
   takes precedence; where none lies below, it settles the rest. *)
let classify (cfg : Cfg.t) bl cp =
  let g = cfg.Cfg.graph and proc = cfg.Cfg.proc and exit = cfg.Cfg.exit in
  let table = Array.make (Ball_larus.num_paths bl) Feasible in
  let backedge = Array.make (Digraph.num_edges g) false in
  List.iter
    (fun (b : Digraph.edge) -> backedge.(b.Digraph.id) <- true)
    (Ball_larus.backedges bl);
  let dead e = not (Constprop.edge_executable cp e) in
  let settle sum v verdict =
    Array.fill table sum (Ball_larus.np bl v) verdict
  in
  let end_val e = snd (Ball_larus.backedge_pseudo_vals bl e) in
  (* Whether a dead edge lies on some path from [v]: 0 no, 1 yes, -1 not
     yet known. *)
  let dead_below = Array.make (Digraph.num_vertices g) (-1) in
  let rec has_dead v =
    if dead_below.(v) < 0 then
      dead_below.(v) <-
        (if
           List.exists
             (fun (e : Digraph.edge) ->
               dead e
               || (not backedge.(e.Digraph.id))
                  && e.Digraph.dst <> exit && has_dead e.Digraph.dst)
             (Digraph.out_edges g v)
         then 1
         else 0);
    dead_below.(v) = 1
  in
  let rec scan v sum contra =
    if not (has_dead v) then settle sum v contra
    else
      List.iter
        (fun (e : Digraph.edge) ->
          if backedge.(e.Digraph.id) then
            table.(sum + end_val e) <-
              (if dead e then Infeasible_edge e else contra)
          else
            let sum = sum + Ball_larus.edge_val bl e in
            if dead e then settle sum e.Digraph.dst (Infeasible_edge e)
            else if e.Digraph.dst = exit then table.(sum) <- contra
            else scan e.Digraph.dst sum contra)
        (Digraph.out_edges g v)
  in
  let rec replay v sum state =
    let l = Option.get (Cfg.label_of_vertex cfg v) in
    let b = Proc.block proc l in
    List.iter (Constprop.transfer state) b.Block.instrs;
    (* Whether leaving through [out] contradicts a constant condition. *)
    let contra =
      match b.Block.term with
      | Block.Br (r, _, _) -> (
          match state.(r) with
          | Constprop.Const c ->
              let taken : Cfg.edge_role =
                if c <> 0 then Cfg.Branch_true else Cfg.Branch_false
              in
              fun out ->
                if Cfg.role cfg out <> taken then
                  Some (Infeasible_branch { block = l; value = c })
                else None
          | Constprop.Top -> fun _ -> None)
      | Block.Jmp _ | Block.Ret _ -> fun _ -> None
    in
    let outs = Digraph.out_edges g v in
    (* The replay forks along the out-edges it goes on through: the last
       of them takes [state] itself, the others a copy. *)
    let forks =
      ref
        (List.fold_left
           (fun n (e : Digraph.edge) ->
             if
               (not backedge.(e.Digraph.id))
               && e.Digraph.dst <> exit
               && (not (dead e))
               && contra e = None
             then n + 1
             else n)
           0 outs)
    in
    List.iter
      (fun (e : Digraph.edge) ->
        if backedge.(e.Digraph.id) then
          table.(sum + end_val e) <-
            (if dead e then Infeasible_edge e
             else Option.value (contra e) ~default:Feasible)
        else
          let sum = sum + Ball_larus.edge_val bl e in
          if dead e then settle sum e.Digraph.dst (Infeasible_edge e)
          else
            match contra e with
            | Some verdict ->
                if e.Digraph.dst = exit then table.(sum) <- verdict
                else scan e.Digraph.dst sum verdict
            | None ->
                if e.Digraph.dst <> exit then begin
                  decr forks;
                  replay e.Digraph.dst sum
                    (if !forks = 0 then state else Array.copy state)
                end)
      outs
  in
  List.iter
    (fun (e : Digraph.edge) ->
      replay e.Digraph.dst (Ball_larus.edge_val bl e)
        (Array.make (max proc.Proc.niregs 1) Constprop.Top))
    (Digraph.out_edges g cfg.Cfg.entry);
  List.iter
    (fun (b : Digraph.edge) ->
      let sum = fst (Ball_larus.backedge_pseudo_vals bl b) in
      if dead b then settle sum b.Digraph.dst (Infeasible_edge b)
      else
        (* an executable backedge leaves a reached block *)
        let src = Option.get (Cfg.label_of_vertex cfg b.Digraph.src) in
        replay b.Digraph.dst sum (Option.get (Constprop.exit_state cp src)))
    (Ball_larus.backedges bl);
  table

let analyze cfg bl =
  let cp = Constprop.analyze cfg in
  let table =
    if Ball_larus.num_paths bl <= max_enumerate then Some (classify cfg bl cp)
    else None
  in
  { bl; cp; table }

let enumerated t = t.table <> None
let constprop t = t.cp

let check t sum =
  match t.table with Some table -> table.(sum) | None -> Feasible

let feasible t sum = check t sum = Feasible

let num_feasible t =
  match t.table with
  | Some table ->
      Array.fold_left
        (fun acc v -> if v = Feasible then acc + 1 else acc)
        0 table
  | None -> Ball_larus.num_paths t.bl

let infeasible_sums t =
  match t.table with
  | None -> []
  | Some table ->
      let acc = ref [] in
      for sum = Array.length table - 1 downto 0 do
        if table.(sum) <> Feasible then acc := sum :: !acc
      done;
      !acc

let prune t =
  if not (enumerated t) then
    invalid_arg "Feasibility.prune: path table too large to enumerate";
  Ball_larus.prune t.bl ~feasible:(feasible t)

let pruner cfg bl =
  let t = analyze cfg bl in
  if enumerated t then Some (prune t) else None
