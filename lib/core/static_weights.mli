(** Static execution-frequency estimation for the optimized increment
    placement.

    BL96 chooses the spanning tree by edge frequency so that hot edges stay
    increment-free; without a prior profile it estimates frequency from
    loop structure.  This module provides that estimate: each natural loop
    multiplies its members' expected frequency by a constant factor. *)

module Digraph = Pp_graph.Digraph

(** [edge_weight cfg] estimates an edge's execution frequency as
    [8^depth] (capped), where the edge's depth is the {e smaller} of its
    endpoints' loop depths (an edge entering or leaving a loop executes at
    the outer rate).  A vertex's loop depth is {!Pp_graph.Loops.depth}:
    backedges sharing a header make one loop, and retreating edges of
    irreducible regions contribute none. *)
val edge_weight : Pp_ir.Cfg.t -> Digraph.edge -> int
