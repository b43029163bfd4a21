(** Depth-first search over {!Digraph}.

    All results are relative to a single DFS rooted at a given vertex,
    exploring out-edges in insertion order.  Vertices unreachable from the
    root are left unvisited, and their out-edges are never back edges. *)

type t

(** [run g ~root] performs one DFS from [root]. *)
val run : Digraph.t -> root:Digraph.vertex -> t

val reachable : t -> Digraph.vertex -> bool

(** All back edges, in increasing edge-id order: edges whose destination
    is an ancestor of their source, self-loops included.  A digraph is
    acyclic iff its DFS has no back edges. *)
val back_edges : t -> Digraph.edge list

(** Reachable vertices in reverse postorder (a topological order when the
    graph is acyclic). *)
val reverse_postorder : t -> Digraph.vertex list
