(** The dynamic call tree: one vertex per procedure activation (Figure 4(a)).

    Precise but unbounded — its size is proportional to the number of calls
    — so it exists here as the reference structure for tests, figures and
    small examples, with a node budget to keep it honest. *)

type t

val create : unit -> t

(** @raise Invalid_argument past a million activations. *)
val enter : t -> proc:string -> unit
val exit : t -> unit
val num_nodes : t -> int

(** All distinct calling contexts (root excluded from the chains), each with
    its number of occurrences.  The set of DCT paths equals the set of CCT
    vertices when there is no recursion — the property tests rely on this. *)
val contexts : t -> (string list * int) list
[@@test_only "the reference context set that CCT vertices are checked against (paper section 4.1)"]

(** Depth-first pretty print, Figure-4 style. *)
val pp : Format.formatter -> t -> unit
