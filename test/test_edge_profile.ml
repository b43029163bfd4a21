(* Edge profiling (the BL94 baseline): optimal counter placement and flow
   reconstruction, cross-checked against path profiles. *)

module Digraph = Pp_graph.Digraph
module Cfg = Pp_ir.Cfg
module Edge_profile = Pp_core.Edge_profile
module Ball_larus = Pp_core.Ball_larus
module Profile = Pp_core.Profile
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver

let check = Alcotest.check

let test_chord_count () =
  (* A spanning tree of a connected graph with V vertices and E edges
     (including the fictional one) leaves E - V + 1 chords. *)
  let p = Fixtures.figure1_proc () in
  let cfg = Cfg.of_proc p in
  let plan = Edge_profile.plan cfg in
  let v = Digraph.num_vertices cfg.Cfg.graph in
  let e = Digraph.num_edges cfg.Cfg.graph + 1 in
  check Alcotest.int "chords = E - V + 1" (e - v + 1)
    (Edge_profile.num_counters plan);
  (* Fewer counters than edges: the point of the optimization. *)
  Alcotest.(check bool) "fewer counters than edges" true
    (Edge_profile.num_counters plan < Digraph.num_edges cfg.Cfg.graph)

(* Derive per-edge counts from an executed path profile: every decoded path
   contributes its frequency to each edge it traverses. *)
let edge_counts_from_paths (p : Profile.proc_profile) cfg =
  let table = Hashtbl.create 32 in
  let bump (e : Digraph.edge) f =
    Hashtbl.replace table e.Digraph.id
      (f + Option.value ~default:0 (Hashtbl.find_opt table e.Digraph.id))
  in
  let backedges =
    List.map (fun (e : Digraph.edge) -> e.Digraph.id)
      (Ball_larus.backedges p.Profile.numbering)
  in
  let real_edge u w =
    List.find
      (fun (e : Digraph.edge) -> not (List.mem e.Digraph.id backedges))
      (Fixtures.edges_between cfg.Cfg.graph u w)
  in
  List.iter
    (fun (sum, (m : Profile.path_metrics)) ->
      let f = m.Profile.freq in
      let path = Ball_larus.decode p.Profile.numbering sum in
      (match path.Ball_larus.source with
      | Ball_larus.From_entry ->
          bump
            (List.hd (Digraph.out_edges cfg.Cfg.graph cfg.Cfg.entry))
            f
      | Ball_larus.After_backedge _ -> ());
      let rec walk = function
        | u :: (w :: _ as rest) ->
            bump (real_edge u w) f;
            walk rest
        | [ _ ] | [] -> ()
      in
      walk path.Ball_larus.blocks;
      match path.Ball_larus.sink with
      | Ball_larus.To_exit ->
          let last =
            List.fold_left (fun _ b -> b) (-1) path.Ball_larus.blocks
          in
          bump
            (List.find
               (fun (e : Digraph.edge) -> e.Digraph.dst = cfg.Cfg.exit)
               (Digraph.out_edges cfg.Cfg.graph last))
            f
      | Ball_larus.Into_backedge b -> bump b f)
    p.Profile.paths;
  table

let workload_src =
  {|
int data[4096];
int classify(int v) {
  if (v < 100) { return 0; }
  if (v % 2 == 0) { return 1; }
  return 2;
}
void main() {
  int i; int c0; int c1; int c2;
  c0 = 0; c1 = 0; c2 = 0;
  for (i = 0; i < 4096; i = i + 1) { data[i] = i * 37 % 1000; }
  for (i = 0; i < 4096; i = i + 1) {
    int k;
    k = classify(data[i]);
    if (k == 0) { c0 = c0 + 1; }
    else { if (k == 1) { c1 = c1 + 1; } else { c2 = c2 + 1; } }
  }
  print(c0); print(c1); print(c2);
}
|}

let test_reconstruction_matches_paths () =
  let prog = Pp_minic.Compile.program ~name:"edges" workload_src in
  (* Run once with edge profiling, once with path profiling. *)
  let se = Driver.prepare ~mode:Instrument.Edge_freq prog in
  let re = Driver.run se in
  let sp = Driver.prepare ~mode:Instrument.Flow_freq prog in
  let rp = Driver.run sp in
  Alcotest.(check bool) "same program output" true
    (re.Pp_vm.Interp.output = rp.Pp_vm.Interp.output);
  let path_profile = Driver.path_profile sp in
  List.iter
    (fun (proc, plan, edge_counts) ->
      let pp = Option.get (Profile.find_proc path_profile proc) in
      let expected =
        edge_counts_from_paths pp (Edge_profile.cfg plan)
      in
      List.iter
        (fun ((e : Digraph.edge), count) ->
          let want =
            Option.value ~default:0
              (Hashtbl.find_opt expected e.Digraph.id)
          in
          if count <> want then
            Alcotest.failf "%s edge %d->%d: reconstructed %d, paths say %d"
              proc e.Digraph.src e.Digraph.dst count want)
        edge_counts)
    (Driver.edge_profile se)

let test_edge_cheaper_than_path () =
  (* The paper: path profiling costs roughly twice efficient edge
     profiling.  Check at least strict ordering on a branchy workload. *)
  let w = Option.get (Pp_workloads.Registry.find "gcc_like") in
  let prog = Pp_workloads.Workload.compile w in
  let base = Driver.run_baseline ~max_instructions:200_000_000 prog in
  let cycles mode =
    let s = Driver.prepare ~max_instructions:200_000_000 ~mode prog in
    (Driver.run s).Pp_vm.Interp.cycles
  in
  let edge = cycles Instrument.Edge_freq in
  let path = cycles Instrument.Flow_freq in
  let base = base.Pp_vm.Interp.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "edge overhead (%.2f) < path overhead (%.2f)"
       (float_of_int edge /. float_of_int base)
       (float_of_int path /. float_of_int base))
    true
    (edge - base < path - base)

let prop_reconstruct_random_cfgs =
  (* On random cyclic CFGs: chords + conservation determine every edge.
     Synthesise consistent counts by simulating random walks. *)
  QCheck.Test.make ~name:"reconstruction solves random CFGs" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 10))
    (fun (seed, n) ->
      let p = Fixtures.random_cyclic_proc ~seed ~n in
      let cfg = Cfg.of_proc p in
      let plan = Edge_profile.plan cfg in
      (* Simulate some random walks ENTRY -> EXIT, recording true counts. *)
      let rng = Random.State.make [| seed; 3 |] in
      let true_counts = Hashtbl.create 32 in
      let bump (e : Digraph.edge) =
        Hashtbl.replace true_counts e.Digraph.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt true_counts e.Digraph.id))
      in
      for _ = 1 to 20 do
        let v = ref cfg.Cfg.entry in
        let steps = ref 0 in
        while !v <> cfg.Cfg.exit && !steps < 200 do
          let outs = Digraph.out_edges cfg.Cfg.graph !v in
          let e = List.nth outs (Random.State.int rng (List.length outs)) in
          bump e;
          v := e.Digraph.dst;
          incr steps
        done;
        (* Abandoned walks would break conservation: force completion by
           walking the remaining way via lowest-id edges. *)
        while !v <> cfg.Cfg.exit do
          (* Prefer an edge that makes progress (to a vertex with larger
             DFS finish = closer to exit); fall back to the first. *)
          let outs = Digraph.out_edges cfg.Cfg.graph !v in
          let e =
            match
              List.find_opt
                (fun (e : Digraph.edge) -> e.Digraph.dst > e.Digraph.src)
                outs
            with
            | Some e -> e
            | None -> List.hd outs
          in
          bump e;
          v := e.Digraph.dst;
          incr steps;
          if !steps > 10_000 then failwith "walk stuck"
        done
      done;
      let counts =
        Array.of_list
          (List.map
             (fun ((e : Digraph.edge), _) ->
               Option.value ~default:0
                 (Hashtbl.find_opt true_counts e.Digraph.id))
             (Edge_profile.chords plan))
      in
      List.for_all
        (fun ((e : Digraph.edge), c) ->
          c
          = Option.value ~default:0
              (Hashtbl.find_opt true_counts e.Digraph.id))
        (Edge_profile.reconstruct plan ~counts))

let suite =
  [
    Alcotest.test_case "chord counting" `Quick test_chord_count;
    Alcotest.test_case "reconstruction matches path profile" `Quick
      test_reconstruction_matches_paths;
    Alcotest.test_case "edge profiling cheaper than path" `Slow
      test_edge_cheaper_than_path;
    QCheck_alcotest.to_alcotest prop_reconstruct_random_cfgs;
  ]
