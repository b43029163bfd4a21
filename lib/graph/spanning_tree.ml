let maximum g ~weight =
  let edges = Digraph.fold_edges (fun e acc -> e :: acc) g [] in
  (* Sort by decreasing weight; ties broken by edge id for determinism. *)
  let edges =
    List.sort
      (fun a b ->
        match compare (weight b) (weight a) with
        | 0 -> compare a.Digraph.id b.Digraph.id
        | c -> c)
      edges
  in
  let uf = Union_find.create (Digraph.num_vertices g) in
  List.filter
    (fun (e : Digraph.edge) ->
      e.src <> e.dst && Union_find.union uf e.src e.dst)
    edges
