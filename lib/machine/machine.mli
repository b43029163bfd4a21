(** The assembled microarchitecture model.

    The VM reports every fetch, load, store, branch and FP operation; the
    machine advances a cycle clock, applies stall penalties and maintains
    the event {!Counters}.  Each event has one entry point, shared by
    both engines.  Timing is a one-instruction-per-cycle base plus
    penalty cycles — deliberately simple, but every penalty source the paper
    measures (D/I-cache misses, mispredicts, store-buffer pressure, FP
    latency) is present and is perturbed by instrumentation code exactly as
    on real hardware. *)

type t

val create : Config.t -> t
val config : t -> Config.t
val counters : t -> Counters.t

(** Current cycle count. *)
val now : t -> int

(** Fetch one instruction slot at a code address. *)
val fetch : t -> addr:int -> unit

(** Data read of the word at [addr]. *)
val load : t -> addr:int -> unit

(** Data write of the word at [addr]. *)
val store : t -> addr:int -> unit

(** Conditional branch at code address [addr] resolving to [taken]. *)
val branch : t -> addr:int -> taken:bool -> unit

(** FP arithmetic reading [s1] and [s2] into [dst] (see {!Fp_unit.issue}). *)
val fp_issue :
  t -> cls:Fp_unit.op_class -> dst:int -> s1:int -> s2:int -> unit

(** A non-FP consumer (store, compare, conversion) waits on FP register
    [src]. *)
val fp_use : t -> src:int -> unit

(** FP register [dst] defined by a non-arithmetic producer. *)
val fp_define : t -> dst:int -> unit

(** Make room for a procedure's FP registers and clear their ready times
    (called on procedure entry; the model does not track FP pipelining
    across calls). *)
val fp_frame : t -> nregs:int -> unit

(** {2 Batched per-segment events}

    The compiled engine reports a segment's machine events — a maximal
    run of a block's instructions that calls, profiling pseudo-ops and
    PIC access do not interrupt — as one plan, built once at compile
    time, instead of a call per instruction.  Only stores and FP
    issue/use/define read the cycle clock; fetches and loads only add
    cycles, each to its own cache.  So the plan cuts the segment into
    groups, each closed by one clock-reading event, and applies a group's
    fetch cycles, its icache probes (one per change of line, in program
    order) and its dcache loads (in program order) in one step before its
    event.  Counters, cycles and cache, store-buffer and FP-scoreboard
    state after the flush are bit-identical to the equivalent sequence of
    {!fetch}/{!load}/{!store}/FP calls. *)

(** A segment's events in program order, as the interpreter reports
    them.  A load or store operand is a slot of the [dyn] array the
    flush is given: the segment's loads take slots [0, 1, 2, ...] in
    program order (so each group's loads are one contiguous range), its
    stores any slots after them. *)
type block_op =
  | Bfetch of int  (** instruction fetch at this code address *)
  | Bload of int  (** data read of [dyn.(slot)] *)
  | Bstore of int  (** data write of [dyn.(slot)] *)
  | Bfp_issue of { cls : Fp_unit.op_class; dst : int; s1 : int; s2 : int }
  | Bfp_use of int
  | Bfp_define of int

(** The grouped form of a segment with a clock-reading event. *)
type ordered

type plan =
  | Bulk of { fetches : int; leaders : int array; nloads : int }
      (** only fetches and loads: apply with {!block_bulk} *)
  | Ordered of ordered  (** apply with {!block_ordered} *)

(** [plan t ops] groups a segment's events for [t]'s icache line size.
    The first fetch always probes: whatever ran before the segment (a
    call, a runtime stub) may have touched the icache.
    @raise Invalid_argument if the load slots do not count up from 0. *)
val plan : t -> block_op list -> plan

(** [block_ordered t p ~dyn] applies an ordered plan; [dyn] carries the
    load/store addresses this execution of the segment computed. *)
val block_ordered : t -> ordered -> dyn:int array -> unit

(** Whole-block fast form for batched blocks whose events are only
    fetches and data reads.  Nothing in such a block reads the cycle
    clock, so totals commute: counter bumps are applied in bulk, the
    icache is probed once per distinct line of the block's body
    ([leaders], in program order) and the dcache once per load
    ([dyn.(0..nloads-1)], in program order).  Resulting counters, cycles
    and cache state are bit-identical to the per-instruction calls.
    {!plan} gives a segment this form when it qualifies. *)
val block_bulk :
  t -> fetches:int -> leaders:int array -> dyn:int array -> nloads:int -> unit

(** [fetch_run t ~addr ~slots ~count] is [count] instruction fetches at
    [addr + (i mod max 1 slots) * 4] for [i = 0 .. count-1]: a runtime
    stub's dynamic instruction charge, wrapping around inside the stub's
    [slots]-slot footprint.  Counts are bumped in bulk and the icache is
    probed once per change of line; counters, cycles and cache state are
    bit-identical to the [count] separate {!fetch}es (see {!block_bulk}
    for why the skipped repeat probes are exact). *)
val fetch_run : t -> addr:int -> slots:int -> count:int -> unit

(** A compiled block's terminator fetch; [probe:true] behaves as {!fetch}.
    [probe:false] elides the icache probe when the terminator shares its
    line with the block's last body fetch (the skipped probe would hit an
    untouched, already most-recent line — state-equivalent). *)
val fetch_term : t -> addr:int -> probe:bool -> unit
