(** Deterministic, seed-driven fault plans for chaos runs.

    A fault plan decides, as a pure function of [(seed, task, attempt)],
    whether a pool task fails and how: the worker crashes before doing any
    work, stalls past its timeout, dies mid-shard-write, or completes a
    write that is then corrupted on disk.  Because the plan is
    deterministic, a chaos run ([pp chaos], {!Chaos}) is exactly
    reproducible from its seed — the same shards fail the same way in the
    same attempts, so CI can assert byte-identical recovery.

    Plans only inject on the first attempt, so any retry budget of 2 or
    more is guaranteed to converge: the fault fires, the retry runs
    clean. *)

(** One injected failure.  [Crash] and [Stall] fire before the task does
    any work; a [Write] fault is passed to {!Pp_core.Crc32.write_atomic}
    when the task writes its shard. *)
type fault =
  | Crash  (** the worker dies before computing anything *)
  | Stall of float  (** the worker sleeps this long — outlive the timeout *)
  | Write of Pp_core.Crc32.fault
      (** the shard write is killed mid-way, torn, bit-flipped or
          truncated *)

(** The fault mix a seeded plan draws from. *)
type kind =
  | Crash_heavy  (** crashes, stalls, mid-write kills — process failures *)
  | Corruption_heavy  (** torn writes, bit flips, truncations — data damage *)
  | Mixed

type plan

(** [seeded kind ~seed ~tasks] draws a deterministic plan over task
    indices [0 .. tasks-1]: roughly two thirds of the tasks get one fault
    each, of the [kind]'s mix.  [stall] is the sleep used for [Stall]
    faults (choose it longer than the pool timeout; default 30s).
    @raise Invalid_argument if [tasks < 0]. *)
val seeded : ?stall:float -> kind -> seed:int -> tasks:int -> plan

(** The fault to inject for this task on this attempt (attempts are
    1-based), or [None] to run clean. *)
val fault_for : plan -> task:int -> attempt:int -> fault option

(** Deterministic one-line plan summary, e.g.
    ["crash-heavy seed 7: 4 of 6 tasks faulted"]. *)
val summary : plan -> string

(** Per-task fault descriptions in task order, e.g.
    [["shard 0: crash"; "shard 3: bit flip"]]. *)
val describe_plan : plan -> string list

(** {2 Deterministic mixing}

    The hash the plans (and the pool's backoff jitter) are built on:
    SplitMix64-style avalanche of a list of ints.  Exposed so other
    deterministic choices can share the discipline. *)

val mix : int list -> int

(** [unit_float h] maps a hash to [0.0 <= x < 1.0]. *)
val unit_float : int -> float
