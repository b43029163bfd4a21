(** Efficient edge profiling — the Ball–Larus 1994 baseline the paper
    compares against ("roughly twice that of efficient edge profiling").

    Counters go only on the {e chords} of a spanning tree of the CFG
    extended with a fictional EXIT→ENTRY edge (Knuth's classic result);
    tree-edge counts are recovered afterwards by flow conservation. *)

module Digraph = Pp_graph.Digraph

type t

(** [plan cfg] chooses the spanning tree ([weights] estimates execution
    frequency, default uniform) and numbers the chords. *)
val plan : ?weights:(Digraph.edge -> int) -> Pp_ir.Cfg.t -> t

val cfg : t -> Pp_ir.Cfg.t

(** Instrumented edges with their counter indices, in index order.  All are
    real CFG edges (the fictional edge is always a tree edge). *)
val chords : t -> (Digraph.edge * int) list

val num_counters : t -> int

(** [reconstruct t ~counts] recovers every CFG edge's execution count from
    the chord counters by solving the flow-conservation equations over the
    tree.  [counts.(i)] is chord [i]'s counter.
    @raise Invalid_argument if [counts] has the wrong length. *)
val reconstruct : t -> counts:int array -> (Digraph.edge * int) list
