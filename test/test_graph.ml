(* Unit and property tests of the graph substrate. *)

open Pp_graph

let check = Alcotest.check

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let g = Digraph.create () in
  let vs = Digraph.add_vertices g 4 in
  (match vs with
  | [ 0; 1; 2; 3 ] -> ()
  | _ -> Alcotest.fail "vertex allocation order");
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 0 2);
  ignore (Digraph.add_edge g 1 3);
  ignore (Digraph.add_edge g 2 3);
  g

let test_digraph_basics () =
  let g = diamond () in
  check Alcotest.int "vertices" 4 (Digraph.num_vertices g);
  check Alcotest.int "edges" 4 (Digraph.num_edges g);
  check (Alcotest.list Alcotest.int) "succs in insertion order" [ 1; 2 ]
    (Digraph.succs g 0);
  check (Alcotest.list Alcotest.int) "preds" [ 1; 2 ] (Digraph.preds g 3);
  check Alcotest.int "out edges" 2 (List.length (Digraph.out_edges g 0));
  check Alcotest.int "in degree" 2 (Digraph.in_degree g 3);
  (* parallel edges allowed and distinct *)
  let e1 = Digraph.add_edge g 0 1 in
  let e2 = Digraph.add_edge g 0 1 in
  Alcotest.(check bool) "distinct ids" true (e1.Digraph.id <> e2.Digraph.id);
  check Alcotest.int "parallel out edges" 4
    (List.length (Digraph.out_edges g 0))

let test_digraph_copy_isolated () =
  let g = diamond () in
  let g' = Digraph.copy g in
  ignore (Digraph.add_edge g' 3 0);
  check Alcotest.int "original unchanged" 4 (Digraph.num_edges g);
  check Alcotest.int "copy grew" 5 (Digraph.num_edges g')

let test_digraph_bad_vertex () =
  let g = diamond () in
  (match Digraph.add_edge g 0 9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid_arg");
  match Digraph.out_edges g 17 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid_arg"

let test_dfs_classification () =
  (* 0 -> 1 -> 2 -> 0 (cycle), 0 -> 2 (forward-ish), 1 -> 1 (self). *)
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 3);
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 1 2);
  let back = Digraph.add_edge g 2 0 in
  ignore (Digraph.add_edge g 0 2);
  let self = Digraph.add_edge g 1 1 in
  let dfs = Dfs.run g ~root:0 in
  (* Tree and forward edges are not back edges; the self-loop is. *)
  check (Alcotest.list Alcotest.int) "back and self only"
    [ back.Digraph.id; self.Digraph.id ]
    (List.map (fun (e : Digraph.edge) -> e.Digraph.id) (Dfs.back_edges dfs))

let test_dfs_unreachable () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 3);
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 2 2);
  let dfs = Dfs.run g ~root:0 in
  Alcotest.(check bool) "2 unreachable" false (Dfs.reachable dfs 2);
  check Alcotest.int "unreachable self-loop is no back edge" 0
    (List.length (Dfs.back_edges dfs));
  check (Alcotest.list Alcotest.int) "postorder covers the reachable" [ 0; 1 ]
    (Dfs.reverse_postorder dfs)

let test_dfs_deep_no_overflow () =
  (* A 200k-deep chain must not blow the OCaml stack. *)
  let g = Digraph.create () in
  let n = 200_000 in
  ignore (Digraph.add_vertices g n);
  for i = 0 to n - 2 do
    ignore (Digraph.add_edge g i (i + 1))
  done;
  let dfs = Dfs.run g ~root:0 in
  Alcotest.(check bool) "end reachable" true (Dfs.reachable dfs (n - 1))

let test_topo () =
  let g = diamond () in
  let order = Topo.reverse_sort g in
  let pos = Array.make 4 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  Digraph.iter_edges
    (fun e ->
      if pos.(e.Digraph.src) <= pos.(e.Digraph.dst) then
        Alcotest.fail "edge violates reverse topological order")
    g;
  Alcotest.(check bool) "acyclic" true (Topo.is_acyclic g);
  ignore (Digraph.add_edge g 3 0);
  Alcotest.(check bool) "cyclic detected" false (Topo.is_acyclic g);
  match Topo.reverse_sort g with
  | exception Topo.Cycle _ -> ()
  | _ -> Alcotest.fail "expected Cycle"

let test_union_find () =
  let uf = Union_find.create 5 in
  Alcotest.(check bool) "fresh union" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "transitively same" false (Union_find.union uf 0 2);
  Alcotest.(check bool) "4 isolated" true (Union_find.union uf 0 4)

let test_spanning_tree () =
  let g = diamond () in
  let tree = Spanning_tree.maximum g ~weight:(fun e -> e.Digraph.id) in
  check Alcotest.int "tree edges = v - 1" 3 (List.length tree);
  (* Maximum weight: the lightest edge (id 0) is the one chord. *)
  check (Alcotest.list Alcotest.int) "heaviest edges, by weight" [ 3; 2; 1 ]
    (List.map (fun (e : Digraph.edge) -> e.Digraph.id) tree);
  (* A self-loop is never a tree edge. *)
  ignore (Digraph.add_edge g 1 1);
  check Alcotest.int "self-loop skipped" 3
    (List.length (Spanning_tree.maximum g ~weight:(fun _ -> 9)))

let prop_spanning_tree_connects =
  QCheck.Test.make ~name:"max spanning tree spans reachable graphs"
    ~count:50
    QCheck.(int_range 2 40)
    (fun n ->
      let rng = Random.State.make [| n; 5 |] in
      let g = Digraph.create () in
      ignore (Digraph.add_vertices g n);
      (* A random connected graph: chain + random extras. *)
      for i = 0 to n - 2 do
        ignore (Digraph.add_edge g i (i + 1))
      done;
      for _ = 1 to n do
        ignore
          (Digraph.add_edge g
             (Random.State.int rng n)
             (Random.State.int rng n))
      done;
      let tree =
        Spanning_tree.maximum g ~weight:(fun e -> e.Digraph.id mod 7)
      in
      (* n - 1 edges that never close a cycle span all n vertices. *)
      List.length tree = n - 1
      &&
      let uf = Union_find.create n in
      List.for_all
        (fun (e : Digraph.edge) -> Union_find.union uf e.Digraph.src e.Digraph.dst)
        tree)

let test_dot_output () =
  let g = diamond () in
  let dot =
    Dot.to_string g ~name:"d"
      ~vertex_label:(fun v -> Printf.sprintf "v%d" v)
      ~edge_label:(fun e -> if e.Digraph.id = 0 then "x\"y" else "")
  in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "escapes quotes" true
    (let rec contains i =
       i + 4 <= String.length dot
       && (String.sub dot i 4 = "x\\\"y" || contains (i + 1))
     in
     contains 0)

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "digraph copy isolation" `Quick
      test_digraph_copy_isolated;
    Alcotest.test_case "digraph rejects bad vertices" `Quick
      test_digraph_bad_vertex;
    Alcotest.test_case "dfs edge classification" `Quick
      test_dfs_classification;
    Alcotest.test_case "dfs unreachable vertices" `Quick test_dfs_unreachable;
    Alcotest.test_case "dfs survives deep graphs" `Quick
      test_dfs_deep_no_overflow;
    Alcotest.test_case "topological sort" `Quick test_topo;
    Alcotest.test_case "union-find" `Quick test_union_find;
    Alcotest.test_case "spanning tree and chords" `Quick test_spanning_tree;
    QCheck_alcotest.to_alcotest prop_spanning_tree_connects;
    Alcotest.test_case "dot output" `Quick test_dot_output;
  ]
