(** Disjoint-set forest with union by rank and path compression. *)

type t

(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)
val create : int -> t

(** [union t a b] merges the sets of [a] and [b]; returns [false] when they
    were already the same set (no change made). *)
val union : t -> int -> int -> bool
