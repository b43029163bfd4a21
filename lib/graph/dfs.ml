type edge_kind = Tree | Back | Forward | Cross

type t = {
  graph : Digraph.t;
  discovery : int array;
  finish : int array;
  tree_edge_of : int array;  (* per vertex: id of the edge discovering it *)
  post : Digraph.vertex array;  (* reachable vertices in postorder *)
}

(* Iterative DFS: an explicit stack of (vertex, remaining out-edges) frames
   avoids OCaml stack overflow on the deep CFGs produced by large
   straight-line procedures. *)
let run g ~root =
  let n = Digraph.num_vertices g in
  let discovery = Array.make n (-1) in
  let finish = Array.make n (-1) in
  let tree_edge_of = Array.make n (-1) in
  let post = ref [] in
  let clock = ref 0 in
  let tick () =
    let t = !clock in
    clock := t + 1;
    t
  in
  let stack = ref [] in
  discovery.(root) <- tick ();
  stack := (root, ref (Digraph.out_edges g root)) :: !stack;
  let rec loop () =
    match !stack with
    | [] -> ()
    | (v, rest) :: tail -> (
        match !rest with
        | [] ->
            finish.(v) <- tick ();
            post := v :: !post;
            stack := tail;
            loop ()
        | e :: es ->
            rest := es;
            let w = e.Digraph.dst in
            if discovery.(w) < 0 then begin
              discovery.(w) <- tick ();
              tree_edge_of.(w) <- e.Digraph.id;
              stack := (w, ref (Digraph.out_edges g w)) :: !stack
            end;
            loop ())
  in
  loop ();
  let post = Array.of_list (List.rev !post) in
  { graph = g; discovery; finish; tree_edge_of; post }

let discovery t v = t.discovery.(v)
let reachable t v = t.discovery.(v) >= 0

let classify t (e : Digraph.edge) =
  let u = e.src and w = e.dst in
  if not (reachable t u) then
    invalid_arg "Dfs.classify: source vertex unreachable from root";
  if t.tree_edge_of.(w) = e.id then Tree
  else if u = w then Back
  else if t.discovery.(u) < t.discovery.(w) && t.finish.(w) < t.finish.(u)
  then Forward
  else if t.discovery.(w) < t.discovery.(u) && t.finish.(u) < t.finish.(w)
  then Back
  else Cross

let back_edges t =
  Digraph.fold_edges
    (fun e acc -> if reachable t e.src && classify t e = Back then e :: acc
      else acc)
    t.graph []
  |> List.rev

let reverse_postorder t =
  Array.fold_left (fun acc v -> v :: acc) [] t.post
