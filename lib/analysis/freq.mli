(** Static execution-frequency estimation (Wu–Larus style heuristics).

    Produces, per procedure invocation, an estimated execution frequency
    for every CFG vertex and edge: branch probabilities from simple
    heuristics (backedge taken x7, post-dominating successor x3,
    statically infeasible edge 0 when a {!Constprop} fixpoint is
    supplied), acyclic propagation from ENTRY in reverse postorder, and an
    8x-per-level scale over the {!Pp_graph.Loops} nesting
    {!Pp_core.Static_weights} also reads. *)

type t

val estimate : ?cp:Constprop.t -> Pp_ir.Cfg.t -> t

(** Estimated executions of a block per invocation. *)
val block_freq : t -> Pp_ir.Block.label -> float

(** Estimated traversals of an edge per invocation: its source's
    frequency times the probability that the edge is taken when control
    is at its source. *)
val edge_freq : t -> Pp_graph.Digraph.edge -> float
