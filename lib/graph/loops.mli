(** Natural-loop discovery and loop-nesting depth.

    A natural backedge [v -> w] (where [w] dominates [v]) defines a loop
    headed at [w]; its body is [w] together with every vertex from which
    [v] is reachable backwards without passing through [w].  Backedges
    sharing a header are merged into one loop.  DFS-retreating edges that
    are not natural backedges (irreducible regions) are ignored. *)

type loop = {
  header : Digraph.vertex;
  backedges : Digraph.edge list;  (** natural backedges into [header] *)
  body : Digraph.vertex list;  (** ascending; includes [header] *)
  parent : int option;  (** index of the innermost strictly-enclosing loop *)
  depth : int;  (** nesting depth, [1] = outermost *)
}

type t

val analyze : Digraph.t -> root:Digraph.vertex -> t

(** Loops indexed densely; order follows first backedge discovery. *)
val loops : t -> loop array

(** Number of loop bodies containing [v]; [0] outside any loop. *)
val depth : t -> Digraph.vertex -> int

(** [in_loop t l v] — membership of [v] in the body of loop [l]. *)
val in_loop : t -> int -> Digraph.vertex -> bool

val is_header : t -> Digraph.vertex -> bool
