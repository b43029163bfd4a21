module Digraph = Pp_graph.Digraph
module Spanning_tree = Pp_graph.Spanning_tree
module Cfg = Pp_ir.Cfg

type t = {
  cfg : Cfg.t;
  helper : Digraph.t;  (* cfg graph + fictional EXIT->ENTRY edge *)
  fictional : Digraph.edge;
  chords : (Digraph.edge * int) list;  (* real cfg edges, counter index *)
}

let plan ?(weights = fun (_ : Digraph.edge) -> 1) (cfg : Cfg.t) =
  let helper = Digraph.copy cfg.Cfg.graph in
  let fictional = Digraph.add_edge helper cfg.Cfg.exit cfg.Cfg.entry in
  let weight (e : Digraph.edge) =
    if e.id = fictional.id then max_int else weights e
  in
  let tree = Spanning_tree.maximum helper ~weight in
  let tree_ids = Hashtbl.create 16 in
  List.iter (fun (e : Digraph.edge) -> Hashtbl.replace tree_ids e.id ()) tree;
  assert (Hashtbl.mem tree_ids fictional.id);
  let chords =
    Digraph.fold_edges
      (fun e acc ->
        if Hashtbl.mem tree_ids e.id || e.id = fictional.id then acc
        else e :: acc)
      helper []
    |> List.rev
    |> List.mapi (fun i e -> (Digraph.edge cfg.Cfg.graph e.Digraph.id, i))
  in
  { cfg; helper; fictional; chords }

let cfg t = t.cfg
let chords t = t.chords
let num_counters t = List.length t.chords

let reconstruct t ~counts =
  if Array.length counts <> num_counters t then
    invalid_arg "Edge_profile.reconstruct: wrong counter count";
  let g = t.helper in
  let n_edges = Digraph.num_edges g in
  let known = Array.make n_edges None in
  List.iter
    (fun ((e : Digraph.edge), i) -> known.(e.id) <- Some counts.(i))
    t.chords;
  (* Flow conservation at every vertex (ENTRY and EXIT balance through the
     fictional edge).  Repeatedly resolve vertices with exactly one unknown
     incident edge — over a tree this always terminates. *)
  let unknown_at v =
    let collect es = List.filter (fun (e : Digraph.edge) -> known.(e.id) = None) es in
    (collect (Digraph.in_edges g v), collect (Digraph.out_edges g v))
  in
  let resolve v =
    match unknown_at v with
    | [ e ], [] | [], [ e ] ->
        let sum dir =
          List.fold_left
            (fun acc (e' : Digraph.edge) ->
              if e'.id = e.id then acc
              else
                match known.(e'.id) with
                | Some c -> acc + c
                | None -> acc)
            0 dir
        in
        let inflow = sum (Digraph.in_edges g v) in
        let outflow = sum (Digraph.out_edges g v) in
        let value =
          if List.exists (fun (x : Digraph.edge) -> x.id = e.id)
               (Digraph.in_edges g v)
          then outflow - inflow
          else inflow - outflow
        in
        known.(e.id) <- Some value;
        true
    | [], [] -> false
    | _ -> false
  in
  let progress = ref true in
  while !progress do
    progress := false;
    Digraph.iter_vertices
      (fun v -> if resolve v then progress := true)
      g
  done;
  Digraph.fold_edges
    (fun e acc ->
      if e.id = t.fictional.id then acc
      else
        match known.(e.id) with
        | Some c -> (Digraph.edge t.cfg.Cfg.graph e.id, c) :: acc
        | None ->
            invalid_arg
              "Edge_profile.reconstruct: underdetermined system (graph not \
               connected through the tree?)")
    t.helper []
  |> List.rev
