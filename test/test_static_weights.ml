(* Loop-depth based frequency estimation. *)

module Static_weights = Pp_core.Static_weights
module Digraph = Pp_graph.Digraph
module Cfg = Pp_ir.Cfg

let check = Alcotest.check

let test_single_loop () =
  let cfg = Cfg.of_proc (Fixtures.loop_proc ()) in
  let weight = Static_weights.edge_weight cfg in
  (* L0 entry chain and L3 return are outside; head L1 and body L2 are in
     the loop, so only the edges between them weigh 8. *)
  let inside v =
    match Cfg.label_of_vertex cfg v with Some (1 | 2) -> true | _ -> false
  in
  Digraph.iter_edges
    (fun e ->
      check Alcotest.int
        (Printf.sprintf "edge %d -> %d" e.Digraph.src e.Digraph.dst)
        (if inside e.Digraph.src && inside e.Digraph.dst then 8 else 1)
        (weight e))
    cfg.Cfg.graph

let test_nested_loops () =
  (* Compile a doubly nested MiniC loop and find a depth-2 vertex. *)
  let src =
    {|
int sink;
void main() {
  int i; int j;
  for (i = 0; i < 3; i = i + 1) {
    for (j = 0; j < 3; j = j + 1) {
      sink = sink + 1;
    }
  }
}
|}
  in
  let prog = Pp_minic.Compile.program ~name:"nest" src in
  let main = Pp_ir.Program.proc_exn prog "main" in
  let cfg = Cfg.of_proc main in
  (* The inner body sits at depth 2: weight grows 8x per level. *)
  let weight = Static_weights.edge_weight cfg in
  let weights_seen =
    Digraph.fold_edges (fun e acc -> weight e :: acc) cfg.Cfg.graph []
    |> List.sort_uniq compare
  in
  Alcotest.(check (Alcotest.list Alcotest.int))
    "weights are 1, 8, 64" [ 1; 8; 64 ] weights_seen

let test_weighted_tree_minimises_chord_mass () =
  (* A maximum-weight spanning tree minimises the total weight of the
     chords — the instrumented edges.  Compare the loop-aware choice with
     the uniform one on several CFGs. *)
  List.iter
    (fun proc ->
      let cfg = Cfg.of_proc proc in
      let weight = Static_weights.edge_weight cfg in
      let mass plan =
        List.fold_left
          (fun acc (e, _) -> acc + weight e)
          0
          (Pp_core.Edge_profile.chords plan)
      in
      let uniform = Pp_core.Edge_profile.plan cfg in
      let weighted = Pp_core.Edge_profile.plan ~weights:weight cfg in
      if mass weighted > mass uniform then
        Alcotest.failf "%s: weighted chord mass %d > uniform %d"
          proc.Pp_ir.Proc.name (mass weighted) (mass uniform))
    [
      Fixtures.loop_proc ();
      Fixtures.two_backedges_proc ();
      Fixtures.figure1_proc ();
      Fixtures.random_cyclic_proc ~seed:5 ~n:9;
      Fixtures.random_cyclic_proc ~seed:6 ~n:12;
    ]

let suite =
  [
    Alcotest.test_case "single loop depths" `Quick test_single_loop;
    Alcotest.test_case "nested loop depths" `Quick test_nested_loops;
    Alcotest.test_case "weighted tree minimises chord mass" `Quick
      test_weighted_tree_minimises_chord_mass;
  ]
