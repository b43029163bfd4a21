(** The simulated data memory: a handful of byte-addressed segments (data,
    heap, profiling, stack) storing 8-byte words.

    Floats are stored exactly (IEEE bits); integers are stored as 64-bit
    two's-complement and read back as OCaml ints (workloads stay well inside
    63 bits).  Code addresses are never mapped here — instruction fetch only
    meets the I-cache model.

    {!read_int} and {!write_int} inline a fast path for an aligned word
    inside the segment accessed last and leave everything else — the
    alignment check, the segment lookup and each [Fault] — to one
    out-of-line checked path; both engines call the same accessors. *)

exception Fault of string
(** Unmapped address, misalignment, or a read/write crossing a segment. *)

type t

(** [create segments] with [(name, base, size_bytes)] triples; segments must
    be 8-byte aligned and disjoint. *)
val create : (string * int * int) list -> t

val read_int : t -> int -> int
val write_int : t -> int -> int -> unit
val read_float : t -> int -> float
val write_float : t -> int -> float -> unit

(** [read_float_into t addr dst i] is [dst.(i) <- read_float t addr] and
    [write_float_from t addr src i] is [write_float t addr src.(i)],
    with the value transferred inside one function so it is never boxed
    (a [float] crossing a module boundary would be). *)
val read_float_into : t -> int -> float array -> int -> unit

val write_float_from : t -> int -> float array -> int -> unit
