exception Cycle of Digraph.vertex

(* Kahn's algorithm.  DFS postorder would also work but covers only vertices
   reachable from one root; topological sorts here must cover the whole
   graph (the Ball–Larus passes run on transformed CFGs whose every vertex
   is reachable, but the generic utility should not assume that). *)
let reverse_sort g =
  let n = Digraph.num_vertices g in
  let indeg = Array.make n 0 in
  Digraph.iter_edges (fun e -> indeg.(e.dst) <- indeg.(e.dst) + 1) g;
  let queue = Queue.create () in
  Digraph.iter_vertices (fun v -> if indeg.(v) = 0 then Queue.add v queue) g;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr emitted;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      (Digraph.succs g v)
  done;
  if !emitted < n then begin
    (* Some vertex still has positive in-degree: it lies on or behind a
       cycle; report one with positive in-degree as the witness. *)
    let witness = ref (-1) in
    Digraph.iter_vertices
      (fun v -> if !witness < 0 && indeg.(v) > 0 then witness := v)
      g;
    raise (Cycle !witness)
  end;
  !order

let is_acyclic g =
  match reverse_sort g with _ -> true | exception Cycle _ -> false
