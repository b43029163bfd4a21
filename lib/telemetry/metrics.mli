(** The metrics registry: named counters, gauges and log-bucketed
    histograms with a canonical deterministic dump, plus snapshot / diff /
    merge so per-worker metrics can flow back through the {!Pp_run.Pool}
    pipe protocol and aggregate in the parent.

    Merge algebra of {!absorb} (the same laws {!Pp_core.Profile_io.merge}
    obeys, tested in [test_telemetry.ml]):
    - counters add, histograms add bucket-wise, gauges take the max —
      all three commutative and associative, with the empty snapshot as
      identity;
    - [diff after before] is the inverse on counters and histograms:
      absorbing [before] then [diff after before] gives [after] whenever
      [after] grew from [before].  A forked worker sends
      [diff (snapshot r) at_fork] so values inherited from the parent
      never double-count.

    Determinism contract: a dump contains no wall-clock or pid-dependent
    values unless a caller records them, so registries populated by
    deterministic work dump byte-identically at any [--jobs]. *)

type t

(** Pure, marshalable view of one metric. *)
type vsnap =
  | Counter of int
  | Gauge of int
  | Histogram of {
      count : int;
      sum : int;
      buckets : (int * int) list;
          (** (bucket index, occupancy), ascending, occupied only; bucket
              [k] holds values [v] with [2^(k-1) <= v < 2^k] ([k = 0]:
              [v <= 0]) *)
    }

(** Sorted by name; at most one entry per name. *)
type snapshot = (string * vsnap) list

(** The process-global registry — what the pool ships between workers and
    what [--telemetry FILE] dumps. *)
val default : t

(** [incr t name n] adds [n] to counter [name] (created at 0).
    @raise Invalid_argument if [name] is registered as another kind. *)
val incr : t -> string -> int -> unit

(** [set_gauge t name v] sets gauge [name]. *)
val set_gauge : t -> string -> int -> unit

(** [observe t name v] adds [v] to histogram [name]. *)
val observe : t -> string -> int -> unit

val snapshot : t -> snapshot

(** [diff after before]: what was recorded between the two snapshots.
    Counters and histogram cells subtract; a gauge keeps its [after]
    value; entries that did not change are omitted. *)
val diff : snapshot -> snapshot -> snapshot

(** Merge a snapshot into a live registry (the parent side of the pool
    protocol).  @raise Invalid_argument when a name carries different
    kinds. *)
val absorb : t -> snapshot -> unit

(** Canonical dump: one line per metric, sorted by name, e.g.
    {[counter pool.tasks 18
      gauge run.shards 4
      hist matrix.cycles count=6 sum=124 b3=2 b5=4]}
    Byte-deterministic for equal snapshots. *)
val dump : snapshot -> string
