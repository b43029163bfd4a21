(** Topological ordering of acyclic digraphs. *)

exception Cycle of Digraph.vertex
(** Raised (with a vertex on some cycle) when the graph is cyclic. *)

(** [reverse_sort g] lists all vertices so that every edge goes from a
    later to an earlier vertex.  This is the visit order of the Ball–Larus
    labelling passes.
    @raise Cycle when the graph contains a directed cycle. *)
val reverse_sort : Digraph.t -> Digraph.vertex list

(** [is_acyclic g] tests for the absence of directed cycles. *)
val is_acyclic : Digraph.t -> bool
