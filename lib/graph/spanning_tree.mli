(** Spanning trees of the undirected view of a digraph.

    The Ball–Larus optimized increment placement [Ball 94, BL96] instruments
    only the chords of a spanning tree, choosing a maximum-weight tree so
    that frequently executed edges escape instrumentation.  This module
    supplies the tree. *)

(** [maximum g ~weight] computes a maximum-weight spanning forest of [g]
    viewed as an undirected graph (Kruskal).  Parallel edges are considered
    individually; at most one of them can be a tree edge. *)
val maximum :
  Digraph.t -> weight:(Digraph.edge -> int) -> Digraph.edge list
