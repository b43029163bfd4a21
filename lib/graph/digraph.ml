type vertex = int

type edge = { id : int; src : vertex; dst : vertex }

(* Adjacency is stored in growable arrays indexed by vertex; each cell holds
   the vertex's edge lists in reverse insertion order (reversed on read). *)
type t = {
  mutable n_vertices : int;
  mutable out_adj : edge list array;
  mutable in_adj : edge list array;
  mutable edges : edge array;  (* dense by id; only [0..n_edges-1] valid *)
  mutable n_edges : int;
}

let create () =
  {
    n_vertices = 0;
    out_adj = Array.make 8 [];
    in_adj = Array.make 8 [];
    edges = Array.make 8 { id = -1; src = -1; dst = -1 };
    n_edges = 0;
  }

let grow arr len dummy =
  let cap = Array.length arr in
  if len < cap then arr
  else begin
    let arr' = Array.make (max (2 * cap) (len + 1)) dummy in
    Array.blit arr 0 arr' 0 cap;
    arr'
  end

let add_vertex g =
  let v = g.n_vertices in
  g.out_adj <- grow g.out_adj v [];
  g.in_adj <- grow g.in_adj v [];
  g.out_adj.(v) <- [];
  g.in_adj.(v) <- [];
  g.n_vertices <- v + 1;
  v

let add_vertices g n =
  List.init n (fun _ -> add_vertex g)

let num_vertices g = g.n_vertices
let num_edges g = g.n_edges
let mem_vertex g v = v >= 0 && v < g.n_vertices

let check_vertex g v =
  if not (mem_vertex g v) then
    invalid_arg (Printf.sprintf "Digraph: vertex %d not in graph" v)

let add_edge g src dst =
  check_vertex g src;
  check_vertex g dst;
  let e = { id = g.n_edges; src; dst } in
  g.edges <- grow g.edges g.n_edges e;
  g.edges.(g.n_edges) <- e;
  g.n_edges <- g.n_edges + 1;
  g.out_adj.(src) <- e :: g.out_adj.(src);
  g.in_adj.(dst) <- e :: g.in_adj.(dst);
  e

let edge g id =
  if id < 0 || id >= g.n_edges then
    invalid_arg (Printf.sprintf "Digraph.edge: id %d out of range" id);
  g.edges.(id)

let out_edges g v =
  check_vertex g v;
  List.rev g.out_adj.(v)

let in_edges g v =
  check_vertex g v;
  List.rev g.in_adj.(v)

let in_degree g v =
  check_vertex g v;
  List.length g.in_adj.(v)

let succs g v = List.map (fun e -> e.dst) (out_edges g v)
let preds g v = List.map (fun e -> e.src) (in_edges g v)

let iter_vertices f g =
  for v = 0 to g.n_vertices - 1 do
    f v
  done

let iter_edges f g =
  for i = 0 to g.n_edges - 1 do
    f g.edges.(i)
  done

let fold_edges f g init =
  let acc = ref init in
  for i = 0 to g.n_edges - 1 do
    acc := f g.edges.(i) !acc
  done;
  !acc

let reverse g =
  let r = create () in
  for _ = 1 to g.n_vertices do
    ignore (add_vertex r)
  done;
  iter_edges (fun e -> ignore (add_edge r e.dst e.src)) g;
  r

let copy g =
  {
    n_vertices = g.n_vertices;
    out_adj = Array.copy g.out_adj;
    in_adj = Array.copy g.in_adj;
    edges = Array.copy g.edges;
    n_edges = g.n_edges;
  }
