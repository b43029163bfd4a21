(* Property tests for the PR-3 graph analyses: dominator/post-dominator
   trees, natural-loop discovery and nesting depth, and graph reversal.

   Dominance facts are checked against an independent brute-force oracle
   (d dominates v iff removing d disconnects v from the root), not against
   the algorithm's own definitions, so the properties would catch a wrong
   fixpoint and not just a crash. *)

module Digraph = Pp_graph.Digraph
module Dfs = Pp_graph.Dfs
module Dominators = Pp_graph.Dominators
module Loops = Pp_graph.Loops
module Cfg = Pp_ir.Cfg

let cyclic_cfg seed = Cfg.of_proc (Fixtures.random_cyclic_proc ~seed ~n:8)
let dag_cfg seed = Cfg.of_proc (Fixtures.random_dag_proc ~seed ~n:8)

(* Vertices reachable from [root] without passing through [cut].  The
   brute-force dominance oracle: for [d <> v], [d] dominates [v] exactly
   when [v] is NOT in [reachable_avoiding g root d]. *)
let reachable_avoiding g ~root ~cut =
  let seen = Array.make (Digraph.num_vertices g) false in
  let rec go v =
    if v <> cut && not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (Digraph.succs g v)
    end
  in
  if root <> cut then go root;
  seen

let vertices g = List.init (Digraph.num_vertices g) Fun.id

let prop_dominators_oracle =
  QCheck.Test.make ~name:"dominates agrees with cut-vertex oracle" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = cyclic_cfg seed in
      let g = cfg.Cfg.graph and root = cfg.Cfg.entry in
      let dom = Dominators.compute g ~root in
      let from_root = reachable_avoiding g ~root ~cut:(-1) in
      List.for_all
        (fun d ->
          let cut = reachable_avoiding g ~root ~cut:d in
          List.for_all
            (fun v ->
              let expected =
                from_root.(v) && ((d = v && from_root.(d)) || not cut.(v))
              in
              Dominators.dominates dom d v = expected)
            (vertices g))
        (vertices g))

let prop_postdominators_oracle =
  QCheck.Test.make ~name:"post-dominates agrees with reversed oracle"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = cyclic_cfg seed in
      let g = cfg.Cfg.graph and exit = cfg.Cfg.exit in
      let pdom = Dominators.compute_post g ~exit in
      let rg = Digraph.reverse g in
      let to_exit = reachable_avoiding rg ~root:exit ~cut:(-1) in
      List.for_all
        (fun d ->
          let cut = reachable_avoiding rg ~root:exit ~cut:d in
          List.for_all
            (fun v ->
              let expected =
                to_exit.(v) && ((d = v && to_exit.(d)) || not cut.(v))
              in
              Dominators.dominates pdom d v = expected)
            (vertices g))
        (vertices g))

let prop_loops_well_formed =
  QCheck.Test.make ~name:"natural loops: headers dominate their bodies"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = cyclic_cfg seed in
      let g = cfg.Cfg.graph and root = cfg.Cfg.entry in
      let dom = Dominators.compute g ~root in
      let loops = Loops.analyze g ~root in
      Array.for_all
        (fun (l : Loops.loop) ->
          List.mem l.Loops.header l.Loops.body
          && List.for_all
               (fun (e : Digraph.edge) ->
                 e.Digraph.dst = l.Loops.header
                 && Dominators.dominates dom l.Loops.header e.Digraph.src)
               l.Loops.backedges
          && List.for_all
               (fun v -> Dominators.dominates dom l.Loops.header v)
               l.Loops.body)
        (Loops.loops loops))

let prop_loop_depth_is_containment_count =
  QCheck.Test.make
    ~name:"loop depth equals number of containing bodies" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = cyclic_cfg seed in
      let g = cfg.Cfg.graph and root = cfg.Cfg.entry in
      let loops = Loops.analyze g ~root in
      let arr = Loops.loops loops in
      List.for_all
        (fun v ->
          let containing =
            Array.to_list arr
            |> List.filter (fun (l : Loops.loop) -> List.mem v l.Loops.body)
          in
          Loops.depth loops v = List.length containing)
        (vertices g))

let prop_loop_parent_strictly_contains =
  QCheck.Test.make ~name:"loop parent strictly contains the child"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = cyclic_cfg seed in
      let loops = Loops.analyze cfg.Cfg.graph ~root:cfg.Cfg.entry in
      let arr = Loops.loops loops in
      Array.for_all
        (fun (l : Loops.loop) ->
          match l.Loops.parent with
          | None -> l.Loops.depth = 1
          | Some p ->
              let pl = arr.(p) in
              pl.Loops.depth = l.Loops.depth - 1
              && List.for_all
                   (fun v -> List.mem v pl.Loops.body)
                   l.Loops.body
              && List.length pl.Loops.body > List.length l.Loops.body)
        arr)

let prop_dag_has_no_loops =
  QCheck.Test.make ~name:"acyclic CFGs have no natural loops" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = dag_cfg seed in
      let loops = Loops.analyze cfg.Cfg.graph ~root:cfg.Cfg.entry in
      Array.length (Loops.loops loops) = 0
      && List.for_all
           (fun v -> Loops.depth loops v = 0)
           (vertices cfg.Cfg.graph))

let prop_reverse_preserves_edge_ids =
  QCheck.Test.make
    ~name:"Digraph.reverse flips every edge, keeping its id" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = cyclic_cfg seed in
      let g = cfg.Cfg.graph in
      let rg = Digraph.reverse g in
      Digraph.num_vertices rg = Digraph.num_vertices g
      && Digraph.num_edges rg = Digraph.num_edges g
      && Digraph.fold_edges
           (fun (e : Digraph.edge) acc ->
             let r = Digraph.edge rg e.Digraph.id in
             acc
             && r.Digraph.src = e.Digraph.dst
             && r.Digraph.dst = e.Digraph.src)
           g true)

(* Deterministic spot check on the shared loop fixtures: the nest shapes
   are known exactly. *)
let test_fixture_loops () =
  let cfg = Cfg.of_proc (Fixtures.two_backedges_proc ()) in
  let loops = Loops.analyze cfg.Cfg.graph ~root:cfg.Cfg.entry in
  Alcotest.(check int) "backedges merge into one loop" 1
    (Array.length (Loops.loops loops));
  let l = (Loops.loops loops).(0) in
  Alcotest.(check int) "two backedges" 2 (List.length l.Loops.backedges);
  Alcotest.(check int) "depth 1" 1 l.Loops.depth;
  let header_label = Cfg.label_of_vertex cfg l.Loops.header in
  Alcotest.(check (option int)) "headed at L1" (Some 1) header_label

let test_fixture_post_dominators () =
  let cfg = Cfg.of_proc (Fixtures.figure1_proc ()) in
  let pdom = Dominators.compute_post cfg.Cfg.graph ~exit:cfg.Cfg.exit in
  (* Block F (the single return) post-dominates every block. *)
  let f = Cfg.vertex_of_label cfg 5 in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "F post-dominates L%d" l)
        true
        (Dominators.dominates pdom f (Cfg.vertex_of_label cfg l)))
    [ 0; 1; 2; 3; 4; 5 ];
  (* ...but E, on one arm of the D branch, post-dominates only itself. *)
  let e = Cfg.vertex_of_label cfg 4 in
  Alcotest.(check bool) "E does not post-dominate D" false
    (Dominators.dominates pdom e (Cfg.vertex_of_label cfg 3))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dominators_oracle;
      prop_postdominators_oracle;
      prop_loops_well_formed;
      prop_loop_depth_is_containment_count;
      prop_loop_parent_strictly_contains;
      prop_dag_has_no_loops;
      prop_reverse_preserves_edge_ids;
    ]
  @ [
      Alcotest.test_case "fixture: two-backedge loop" `Quick
        test_fixture_loops;
      Alcotest.test_case "fixture: figure-1 post-dominators" `Quick
        test_fixture_post_dominators;
    ]
