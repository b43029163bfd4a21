(** Congruence (stride) domain: values of the form [r mod m].

    Tracks alignment facts the intervals cannot — e.g. a table offset
    computed as [key * 24] is congruent to [0 mod 24] and therefore
    8-byte aligned even when [key] is unknown.  Modular arithmetic is not
    wrap-safe for arbitrary moduli, so the interesting transfer functions
    fire only under the [no_wrap] promise computed by {!Interval}; without
    it they return {!top}.  Two known constants always fold exactly (the
    VM's own wrapping arithmetic).  An implementation of {!Domain.S}. *)

type t

val top : t
val const : int -> t
val is_const : t -> int option
val equal : t -> t -> bool
val leq : t -> t -> bool
val join : t -> t -> t

(** The modulus of a join divides both inputs' moduli, so joining doubles
    as a terminating widening. *)
val widen : t -> t -> t

val binop : no_wrap:bool -> Pp_ir.Instr.ibinop -> t -> t -> t
val cmp : Pp_ir.Instr.cmp -> t -> t -> t

(** [divides k t]: every concrete value of [t] is divisible by [k]. *)
val divides : int -> t -> bool

val pp : Format.formatter -> t -> unit
