(** Maps over [int] keys as little-endian Patricia trees (Okasaki & Gill,
    "Fast Mergeable Integer Maps").

    Every operation tests key bits instead of calling a comparison, and a
    map's shape depends only on its key set, so unions, intersections and
    inclusion tests walk two maps in step.  Any [int] is a valid key,
    negatives, [min_int] and [max_int] included.  A [unit t] serves as an
    integer set.

    Operations that can leave a map as it was return that map itself
    ([==]): [add] of a physically equal value, [remove] of an absent key,
    [filter_map] that keeps every value, and [union] of a subset. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val singleton : int -> 'a -> 'a t
val find_opt : int -> 'a t -> 'a option
val mem : int -> 'a t -> bool
val add : int -> 'a -> 'a t -> 'a t
val remove : int -> 'a t -> 'a t
val exists : (int -> 'a -> bool) -> 'a t -> bool

(** [filter_map f m] keeps the keys where [f] gives [Some], with that
    value. *)
val filter_map : (int -> 'a -> 'a option) -> 'a t -> 'a t

(** [union s t] has the keys of both, with [s]'s value where both have
    one. *)
val union : 'a t -> 'a t -> 'a t

(** [inter f s t] has the keys of both where [f key vs vt] gives
    [Some]. *)
val inter : (int -> 'a -> 'a -> 'a option) -> 'a t -> 'a t -> 'a t

(** [sub f s t]: every key of [s] is in [t], and [f vs vt] holds of its
    two values.  [f] must be reflexive: a shared subtree is accepted
    without being visited. *)
val sub : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

(** The bindings in ascending key order. *)
val bindings : 'a t -> (int * 'a) list
