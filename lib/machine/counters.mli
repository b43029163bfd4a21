(** Event counters and the two program-visible PICs.

    Internally every event has a 63-bit total (what an external sampling
    harness reads — the paper's "uninstrumented" baseline measurements).
    The two PICs expose a *32-bit wrapping window* onto two selected events:
    user code zeroes and reads them exactly as PP's instrumentation did on
    the UltraSPARC, and the wrap behaviour motivates measuring along short
    intraprocedural paths (§3.3). *)

type t

val create : unit -> t

(** Select which events the two PICs observe (default:
    [Dcache_read_misses], [Cycles]).  Selection re-zeroes both PICs. *)
val select : t -> pic0:Event.t -> pic1:Event.t -> unit

val selection : t -> Event.t * Event.t

(** The dense index of an event into {!raw_totals}, resolved once by a
    caller that then bumps the array in place. *)
val ix : Event.t -> int

(** The live totals array itself, indexed by {!ix} — {!Machine} caches
    it once and bumps entries in place.  Treat as write-only; use
    {!total} to read. *)
val raw_totals : t -> int array

(** Full 63-bit total since creation (harness view). *)
val total : t -> Event.t -> int

val totals : t -> (Event.t * int) list

(** [read_pic t k] (k = 0 or 1): the selected event's count since the last
    zero, wrapped to 32 bits.  @raise Invalid_argument on other [k]. *)
val read_pic : t -> int -> int

(** Zero both PICs (the [wrpic] instruction). *)
val zero_pics : t -> unit

(** [write_pic t k v] makes a subsequent [read_pic t k] return [v] (plus
    whatever accrues after the write) — the save/restore path of §3.1, where
    a callee restores its caller's counter values before returning. *)
val write_pic : t -> int -> int -> unit
