type t = {
  graph : Digraph.t;
  discovery : int array;
  finish : int array;
  post : Digraph.vertex array;  (* reachable vertices in postorder *)
}

(* Iterative DFS: an explicit stack of (vertex, remaining out-edges) frames
   avoids OCaml stack overflow on the deep CFGs produced by large
   straight-line procedures. *)
let run g ~root =
  let n = Digraph.num_vertices g in
  let discovery = Array.make n (-1) in
  let finish = Array.make n (-1) in
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
              stack := (w, ref (Digraph.out_edges g w)) :: !stack
            end;
            loop ())
  in
  loop ();
  let post = Array.of_list (List.rev !post) in
  { graph = g; discovery; finish; post }

let reachable t v = t.discovery.(v) >= 0

(* [e] is a back edge when its destination is an ancestor of its visited
   source, the source itself included: discovered no later, finished no
   earlier. *)
let is_back t (e : Digraph.edge) =
  let u = e.src and w = e.dst in
  reachable t u
  && t.discovery.(w) <= t.discovery.(u)
  && t.finish.(u) <= t.finish.(w)

let back_edges t =
  Digraph.fold_edges (fun e acc -> if is_back t e then e :: acc else acc)
    t.graph []
  |> List.rev

let reverse_postorder t =
  Array.fold_left (fun acc v -> v :: acc) [] t.post
