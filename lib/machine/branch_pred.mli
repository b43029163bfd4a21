(** Branch direction predictor: a table of 2-bit saturating counters indexed
    by branch address, initialised to weakly-taken. *)

type t

val create : table_size:int -> t

(** [predict_and_update t ~addr ~taken] predicts the branch at [addr],
    updates the counter with the actual outcome, and returns whether the
    prediction was correct. *)
val predict_and_update : t -> addr:int -> taken:bool -> bool
