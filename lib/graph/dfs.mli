(** Depth-first search over {!Digraph} with edge classification.

    All results are relative to a single DFS rooted at a given vertex,
    exploring out-edges in insertion order.  Vertices unreachable from the
    root are left unvisited ([discovery] and [finish] are [-1] for them, and
    their out-edges are unclassified). *)

type edge_kind =
  | Tree  (** edge first discovering its destination *)
  | Back  (** destination is an ancestor of the source (includes self-loops);
              a digraph is acyclic iff its DFS has no back edges *)
  | Forward  (** destination is a proper descendant, not via this edge *)
  | Cross  (** everything else *)

type t

(** [run g ~root] performs one DFS from [root]. *)
val run : Digraph.t -> root:Digraph.vertex -> t

(** Discovery (preorder) time, or [-1] if unreachable. *)
val discovery : t -> Digraph.vertex -> int

val reachable : t -> Digraph.vertex -> bool

(** Classification of an edge whose source was visited.
    @raise Invalid_argument if the source is unreachable. *)
val classify : t -> Digraph.edge -> edge_kind

(** All back edges, in increasing edge-id order. *)
val back_edges : t -> Digraph.edge list

(** Reachable vertices in reverse postorder (a topological order when the
    graph is acyclic). *)
val reverse_postorder : t -> Digraph.vertex list
