(** Dominator analysis (iterative Cooper–Harvey–Kennedy).

    Vertex [d] dominates [v] when every path from the root to [v] passes
    through [d].  Dominators identify {e proper} natural loops: a backedge
    [v -> w] forms one only when [w] dominates [v]; DFS-retreating edges
    that fail this test belong to irreducible regions. *)

type t

(** [compute g ~root] — vertices unreachable from [root] have no
    dominator information. *)
val compute : Digraph.t -> root:Digraph.vertex -> t

(** [compute_post g ~exit] computes post-dominators: the dominator tree of
    the reversed graph rooted at [exit].  [dominates t d v] on the result
    reads as "[d] post-dominates [v]" — every [v]→[exit] path passes
    through [d].  Vertices that cannot reach [exit] have no information. *)
val compute_post : Digraph.t -> exit:Digraph.vertex -> t

(** [dominates t d v] — true when [d] is on every root→[v] path ([d = v]
    included).  False if either vertex is unreachable. *)
val dominates : t -> Digraph.vertex -> Digraph.vertex -> bool

(** Backedges whose target dominates their source — the loops a reducible
    CFG analysis may treat as natural. *)
val natural_backedges : t -> Dfs.t -> Digraph.edge list
