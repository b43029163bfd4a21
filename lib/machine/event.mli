(** The sixteen countable hardware events.

    The UltraSPARC-I implements sixteen counters selectable onto two
    program-visible Performance Instrumentation Counters (PICs); this model
    keeps the same structure with a cleaned-up event set covering everything
    PLDI'97 Table 2 reports: cycles, instructions, D-cache read and write
    misses, I-cache misses, branch-mispredict stalls, store-buffer stalls
    and FP stalls. *)

type t =
  | Cycles
  | Instructions
  | Dcache_reads
  | Dcache_read_misses
  | Dcache_writes
  | Dcache_write_misses
  | Dcache_misses
      (** combined read+write misses — the "L1 data cache misses" metric of
          PLDI'97 Tables 4 and 5, countable on one PIC *)
  | Icache_refs
  | Icache_misses
  | Branches
  | Branch_mispredicts
  | Mispredict_stalls  (** stall cycles due to mispredicted branches *)
  | Store_buffer_stalls  (** stall cycles with the store buffer full *)
  | Fp_ops
  | Fp_stalls  (** stall cycles waiting on FP results *)
  | Loads
  | Stores

val count : int

(** Dense index in [0 .. count-1]. *)
val to_int : t -> int

val all : t list
val name : t -> string

(** Inverse of {!name}. *)
val of_name : string -> t option
