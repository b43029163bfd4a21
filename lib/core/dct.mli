(** The dynamic call tree: one vertex per procedure activation (Figure 4(a)).

    Precise but unbounded — its size is proportional to the number of calls
    — so it exists here as the reference structure for tests, figures and
    small examples, with an optional node budget to keep it honest. *)

type t

(** @raise Invalid_argument if more than [max_nodes] activations occur. *)
val create : ?max_nodes:int -> unit -> t

val enter : t -> proc:string -> unit
val exit : t -> unit
val num_nodes : t -> int

(** All distinct calling contexts (root excluded from the chains), each with
    its number of occurrences.  The set of DCT paths equals the set of CCT
    vertices when there is no recursion — the property tests rely on this. *)
val contexts : t -> (string list * int) list

(** Depth-first pretty print, Figure-4 style. *)
val pp : Format.formatter -> t -> unit
