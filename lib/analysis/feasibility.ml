(* Static path feasibility for Ball–Larus numberings.

   Two layers of evidence, both derived from {!Constprop}:

   - edge infeasibility: a path crossing a CFG edge the conditional
     constant propagation proved never-executable cannot occur;

   - branch correlation: replaying a path's straight-line code symbolically
     (starting from Top, or from the constant-propagation exit state of the
     backedge source for paths that begin after a backedge) may show that a
     branch condition is a constant contradicting the arm the path takes —
     e.g. [t = a > 0 ? 1 : 0; if (t > 0)] kills the mixed arms.

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
  cfg : Cfg.t;
  bl : Ball_larus.t;
  cp : Constprop.t;
  table : verdict array option;  (* per path sum, when enumerated *)
}

(* The largest path table classified up front. *)
let max_enumerate = 4096

(* The CFG edge each path block leaves through, in path order.  The last
   block exits through the Return edge (already in [real_edges]) or the
   sink backedge. *)
let out_edges_of (trav : Ball_larus.traversal) =
  let interior =
    match trav.path.Ball_larus.source with
    | Ball_larus.From_entry -> List.tl trav.real_edges
    | Ball_larus.After_backedge _ -> trav.real_edges
  in
  match trav.path.Ball_larus.sink with
  | Ball_larus.To_exit -> interior
  | Ball_larus.Into_backedge b -> interior @ [ b ]

let check_sum cfg bl cp sum =
  let trav = Ball_larus.traverse bl sum in
  let crossed =
    (match trav.Ball_larus.path.Ball_larus.source with
    | Ball_larus.From_entry -> []
    | Ball_larus.After_backedge b -> [ b ])
    @ trav.Ball_larus.real_edges
    @
    match trav.Ball_larus.path.Ball_larus.sink with
    | Ball_larus.To_exit -> []
    | Ball_larus.Into_backedge b -> [ b ]
  in
  match
    List.find_opt (fun e -> not (Constprop.edge_executable cp e)) crossed
  with
  | Some e -> Infeasible_edge e
  | None -> (
      (* Symbolic replay along the path. *)
      let proc = cfg.Cfg.proc in
      let init =
        match trav.Ball_larus.path.Ball_larus.source with
        | Ball_larus.From_entry ->
            Some (Array.make (max proc.Proc.niregs 1) Constprop.Top)
        | Ball_larus.After_backedge b -> (
            match Cfg.label_of_vertex cfg b.Digraph.src with
            | Some l -> Constprop.exit_state cp l
            | None -> None)
      in
      match init with
      | None ->
          (* Backedge source unreached — its out-edges are not executable,
             so the crossed-edge check above already caught this. *)
          assert false
      | Some state ->
          let exception Contradiction of verdict in
          let step l (out : Digraph.edge) =
            let b = Proc.block proc l in
            List.iter (Constprop.transfer state) b.Block.instrs;
            match b.Block.term with
            | Block.Br (r, _, _) -> (
                match state.(r) with
                | Constprop.Top -> ()
                | Constprop.Const c ->
                    let taken : Cfg.edge_role =
                      if c <> 0 then Cfg.Branch_true else Cfg.Branch_false
                    in
                    if Cfg.role cfg out <> taken then
                      raise
                        (Contradiction
                           (Infeasible_branch { block = l; value = c })))
            | Block.Jmp _ | Block.Ret _ -> ()
          in
          (try
             List.iter2 step trav.Ball_larus.path.Ball_larus.blocks
               (out_edges_of trav);
             Feasible
           with Contradiction v -> v))

let analyze cfg bl =
  let cp = Constprop.analyze cfg in
  let table =
    let n = Ball_larus.num_paths bl in
    if n <= max_enumerate then
      Some (Array.init n (fun sum -> check_sum cfg bl cp sum))
    else None
  in
  { cfg; bl; cp; table }

let enumerated t = t.table <> None
let constprop t = t.cp

let check t sum =
  match t.table with
  | Some table -> table.(sum)
  | None -> check_sum t.cfg t.bl t.cp sum

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
