(** Set-associative caches with LRU replacement.

    The model tracks tags only (no data — the VM's memory is always
    coherent); an access classifies as hit or miss and updates recency.
    Write policy is chosen per access: the L1 D-cache is write-through
    non-allocating (a store miss does not fill the line, as on the
    UltraSPARC), so stores use [write] and loads use [read] (through their
    allocation-free forms). *)

type t

val create : Config.cache_geometry -> t

(** [read t addr] touches the line containing [addr]; a miss fills it.
    Returns [true] on hit. *)
val read : t -> int -> bool
[@@test_only "the reference LRU model read_hot and read_many are checked against"]

(** [write t addr] is a non-allocating write probe: recency is updated on a
    hit, and a miss leaves the cache unchanged.  Returns [true] on hit. *)
val write : t -> int -> bool
[@@test_only "the reference LRU model write_hot is checked against"]

(** Allocation-free [read], the probe {!Machine} makes for every engine.
    Observable behaviour is identical to {!read}, which stays as the
    reference LRU model the tests compare it against. *)
val read_hot : t -> int -> bool

(** Allocation-free [write]; observable behaviour identical to {!write}. *)
val write_hot : t -> int -> bool

(** [read_many t addrs lo hi] reads [addrs.(lo..hi-1)] in order and
    returns the number of misses; state evolves exactly as [hi - lo]
    successive {!read}s.  One call per group of a compiled segment's
    probes instead of one per probe.  The caller keeps [0 <= lo] and
    [hi <= Array.length addrs]: the loops do not check bounds. *)
val read_many : t -> int array -> int -> int -> int

(** [line t addr] numbers the cache line holding [addr]: two addresses
    share a line iff their [line]s are equal. *)
val line : t -> int -> int

(** [probe t addr] tests for presence without disturbing any state. *)
val probe : t -> int -> bool
[@@test_only "reads the contents that tests compare between the reference and hot paths"]
