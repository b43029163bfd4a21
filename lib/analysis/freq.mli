(** Static execution-frequency estimation (Wu–Larus style heuristics).

    Produces, per procedure invocation, an estimated execution frequency
    for every CFG vertex and edge: branch probabilities from simple
    heuristics (backedge taken x7, post-dominating successor x3,
    statically infeasible edge 0 when a {!Constprop} fixpoint is
    supplied), acyclic propagation from ENTRY in reverse postorder, and an
    8x-per-loop-nesting-level scale matching
    {!Pp_core.Static_weights}. *)

type t

val estimate : ?cp:Constprop.t -> Pp_ir.Cfg.t -> t

(** Estimated executions per invocation; ENTRY is 1.0 by construction. *)
val vertex_freq : t -> Pp_graph.Digraph.vertex -> float

val block_freq : t -> Pp_ir.Block.label -> float

(** Probability the edge is taken when control is at its source. *)
val edge_prob : t -> Pp_graph.Digraph.edge -> float

(** [vertex_freq src * edge_prob e]. *)
val edge_freq : t -> Pp_graph.Digraph.edge -> float

val loop_depth : t -> Pp_graph.Digraph.vertex -> int
