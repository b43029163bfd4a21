(** Structured self-tracing: a cheap in-memory ring of typed events.

    The profiler that measures everything could not, until now, measure
    itself.  A [Trace.t] is a bounded ring of span begin/end pairs, counter
    samples and instant markers with monotonic-ish timestamps, recorded by
    the driver, the VM and the pool while a session runs.  Two exporters
    read it back: Chrome [trace_event] JSON (loadable in about://tracing /
    Perfetto) and a compact indented text form.

    Cost discipline: {!null} is a permanently disabled sink — every record
    call on it is a single load-and-branch — so instrumented call sites can
    stay in place in production paths.  Call sites that would do work to
    {e build} an event (allocate a label, read counters) must additionally
    guard with {!enabled}. *)

type t

type event =
  | Begin of { name : string; ts : float }  (** span opens; [ts] seconds *)
  | End of { name : string; ts : float }  (** innermost span closes *)
  | Counter of { name : string; ts : float; values : (string * int) list }
  | Instant of { name : string; ts : float }

(** [create ()] makes an enabled trace.  [clock] supplies absolute times in
    seconds (default [Unix.gettimeofday]; inject a fake for deterministic
    tests); timestamps are stored relative to creation.  [capacity] bounds
    the ring (default 65536 events); when full, the oldest event is
    dropped and {!dropped} counts it.
    @raise Invalid_argument if [capacity <= 0]. *)
val create : ?clock:(unit -> float) -> ?capacity:int -> unit -> t

(** The no-op sink: disabled forever, records nothing, exports empty. *)
val null : t

val enabled : t -> bool

(** Events dropped by the full ring. *)
val dropped : t -> int

(** Recorded events, oldest first. *)
val events : t -> event list

(** [with_span t name f] brackets [f ()] in a span; the end event is
    recorded even when [f] raises. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** [counter t name values] records a multi-value counter sample. *)
val counter : t -> string -> (string * int) list -> unit

val instant : t -> string -> unit

(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]).  The exporter
    repairs ring truncation so the output always carries balanced B/E
    pairs: an [End] whose [Begin] was dropped is omitted, and a span still
    open at export gets a synthetic [End] at the last timestamp. *)
val to_chrome_json : t -> string

(** Compact indented text: one line per span (with duration), counter
    sample and instant, in event order. *)
val to_text : t -> string
