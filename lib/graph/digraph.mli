(** Mutable directed multigraphs with dense integer vertices.

    Vertices are integers [0 .. num_vertices - 1], allocated in order by
    {!add_vertex}.  Parallel edges are permitted — control-flow graphs
    routinely contain two edges between the same pair of blocks (e.g. a
    conditional branch whose arms coincide) — so edges carry a unique [id]
    that client analyses use to key edge attributes.

    Successor and predecessor lists preserve insertion order.  Order is
    semantically relevant to clients: the Ball–Larus labelling assigns edge
    values according to a fixed total order of each vertex's successors. *)

type vertex = int

type edge = private {
  id : int;  (** unique within the graph, dense in [0 .. num_edges - 1] *)
  src : vertex;
  dst : vertex;
}

type t

val create : unit -> t

(** [add_vertex g] allocates and returns the next vertex. *)
val add_vertex : t -> vertex

(** [add_vertices g n] allocates [n] fresh vertices, returning them in
    ascending order. *)
val add_vertices : t -> int -> vertex list

val add_edge : t -> vertex -> vertex -> edge

val num_vertices : t -> int
val num_edges : t -> int

(** [edge g id] retrieves an edge by its id.
    @raise Invalid_argument if [id] is out of range. *)
val edge : t -> int -> edge

(** Out-edges of [v] in insertion order.
    @raise Invalid_argument on an unallocated vertex. *)
val out_edges : t -> vertex -> edge list

(** In-edges of [v] in insertion order. *)
val in_edges : t -> vertex -> edge list

val in_degree : t -> vertex -> int

val succs : t -> vertex -> vertex list
val preds : t -> vertex -> vertex list

val iter_vertices : (vertex -> unit) -> t -> unit

(** Iterates edges in increasing id order. *)
val iter_edges : (edge -> unit) -> t -> unit

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a

(** [reverse g] is a fresh graph with the same vertices and every edge
    flipped.  Edges are inserted in id order, so a reversed edge keeps the
    id of its original — attributes keyed by edge id transfer across. *)
val reverse : t -> t

(** A deep copy sharing no mutable state with the original. *)
val copy : t -> t
