(* Dominator analysis. *)

module Digraph = Pp_graph.Digraph
module Dfs = Pp_graph.Dfs
module Dominators = Pp_graph.Dominators

let check = Alcotest.check

(* The classic CHK example-ish CFG:
     0 -> 1; 1 -> 2; 1 -> 3; 2 -> 4; 3 -> 4; 4 -> 1 (backedge); 4 -> 5 *)
let looped () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 6);
  List.iter
    (fun (a, b) -> ignore (Digraph.add_edge g a b))
    [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4); (4, 1); (4, 5) ];
  g

(* The dominators of [v], ascending. *)
let dominators_of dom g v =
  List.filter
    (fun d -> Dominators.dominates dom d v)
    (List.init (Digraph.num_vertices g) Fun.id)

(* Each vertex's dominators are the chain of immediate dominators from the
   root down to it. *)
let test_idoms () =
  let g = looped () in
  let dom = Dominators.compute g ~root:0 in
  let doms = dominators_of dom g in
  check (Alcotest.list Alcotest.int) "root" [ 0 ] (doms 0);
  check (Alcotest.list Alcotest.int) "1" [ 0; 1 ] (doms 1);
  check (Alcotest.list Alcotest.int) "2" [ 0; 1; 2 ] (doms 2);
  check (Alcotest.list Alcotest.int) "3" [ 0; 1; 3 ] (doms 3);
  check (Alcotest.list Alcotest.int) "4 (join)" [ 0; 1; 4 ] (doms 4);
  check (Alcotest.list Alcotest.int) "5" [ 0; 1; 4; 5 ] (doms 5)

let test_dominates () =
  let g = looped () in
  let dom = Dominators.compute g ~root:0 in
  Alcotest.(check bool) "1 dominates 4" true (Dominators.dominates dom 1 4);
  Alcotest.(check bool) "2 not dominates 4" false
    (Dominators.dominates dom 2 4);
  Alcotest.(check bool) "self" true (Dominators.dominates dom 4 4);
  Alcotest.(check bool) "root dominates all" true
    (Dominators.dominates dom 0 5)

let test_reducible_loop () =
  let g = looped () in
  let dom = Dominators.compute g ~root:0 in
  let dfs = Dfs.run g ~root:0 in
  (* Reducible: the one DFS back edge is natural. *)
  check Alcotest.int "one back edge" 1 (List.length (Dfs.back_edges dfs));
  check Alcotest.int "one natural backedge" 1
    (List.length (Dominators.natural_backedges dom dfs))

let test_irreducible () =
  (* The classic irreducible pair: 0 -> 1, 0 -> 2, 1 <-> 2, 1 -> 3. *)
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 4);
  List.iter
    (fun (a, b) -> ignore (Digraph.add_edge g a b))
    [ (0, 1); (0, 2); (1, 2); (2, 1); (1, 3) ];
  let dom = Dominators.compute g ~root:0 in
  let dfs = Dfs.run g ~root:0 in
  (* Irreducible: a DFS back edge that is not natural. *)
  check Alcotest.int "one back edge" 1 (List.length (Dfs.back_edges dfs));
  check Alcotest.int "no natural backedges" 0
    (List.length (Dominators.natural_backedges dom dfs));
  (* Neither 1 nor 2 dominates the other; only 0 dominates either. *)
  check (Alcotest.list Alcotest.int) "dominators of 1" [ 0; 1 ]
    (dominators_of dom g 1);
  check (Alcotest.list Alcotest.int) "dominators of 2" [ 0; 2 ]
    (dominators_of dom g 2)

let test_unreachable () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 3);
  ignore (Digraph.add_edge g 0 1);
  let dom = Dominators.compute g ~root:0 in
  check (Alcotest.list Alcotest.int) "unreachable has no dominators" []
    (dominators_of dom g 2);
  Alcotest.(check bool) "unreachable not dominated" false
    (Dominators.dominates dom 0 2)

let prop_dominates_matches_definition =
  (* Cross-check [dominates] against the definition: d dominates v iff v is
     unreachable once d is removed. *)
  QCheck.Test.make ~name:"dominates = removal makes v unreachable" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let proc = Fixtures.random_cyclic_proc ~seed ~n:8 in
      let cfg = Pp_ir.Cfg.of_proc proc in
      let g = cfg.Pp_ir.Cfg.graph in
      let root = cfg.Pp_ir.Cfg.entry in
      let dom = Dominators.compute g ~root in
      let n = Digraph.num_vertices g in
      let reachable_avoiding d =
        let seen = Array.make n false in
        let rec go v =
          if (not seen.(v)) && v <> d then begin
            seen.(v) <- true;
            List.iter go (Digraph.succs g v)
          end
        in
        if root <> d then go root;
        seen
      in
      let ok = ref true in
      for d = 0 to n - 1 do
        let seen = reachable_avoiding d in
        for v = 0 to n - 1 do
          if v <> d then begin
            let def = not seen.(v) in
            (* definition only meaningful for reachable v *)
            let v_reachable =
              Dominators.dominates dom root v || v = root
            in
            if v_reachable && Dominators.dominates dom d v <> def then
              ok := false
          end
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "immediate dominators" `Quick test_idoms;
    Alcotest.test_case "dominates and chains" `Quick test_dominates;
    Alcotest.test_case "reducible loop" `Quick test_reducible_loop;
    Alcotest.test_case "irreducible region" `Quick test_irreducible;
    Alcotest.test_case "unreachable vertices" `Quick test_unreachable;
    QCheck_alcotest.to_alcotest prop_dominates_matches_definition;
  ]
