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

(** {2 Batched per-block events}

    The compiled engine reports a basic block's machine events as one
    pre-compiled op sequence instead of a call per instruction.  The op
    list preserves original program order for every clock-sensitive event
    (stores, FP issue/use), so stalls observe the same cycle clock as
    per-instruction reporting; runs of consecutive fetches are fused into
    bulk counter bumps with one icache probe per distinct line, which is
    state-equivalent because the skipped probes re-touch the line probed
    immediately before.  Counters, cycles and cache/predictor state after
    {!block_static} + {!block_step} are bit-identical to the equivalent
    sequence of {!fetch}/{!load}/{!store}/FP calls. *)

type block_op =
  | Bfetch of { count : int; leaders : int array }
      (** [count] instruction fetches; [leaders] holds the first address
          of each distinct icache line in the run, in order *)
  | Bload of int
      (** data read; the operand is [dyn.(i)] at {!block_step} time *)
  | Bstore of int
      (** data write; the operand is [dyn.(i)] at {!block_step} time *)
  | Bfp_issue of { cls : Fp_unit.op_class; dst : int; s1 : int; s2 : int }
  | Bfp_use of int
  | Bfp_define of int

(** [block_static t ~insts ~loads ~stores ~fpops] applies an ordered
    block's (or segment's) fixed event-count bumps in one call.  Counters
    are only read at block boundaries and by observers, which the
    compiled tier runs only after flushing the segment before them, so
    these bumps commute with the probe walk of {!block_step} even though
    the clock does not. *)
val block_static :
  t -> insts:int -> loads:int -> stores:int -> fpops:int -> unit

(** [block_step t ops ~dyn] applies the ops in order; [dyn] carries the
    load/store addresses this execution of the block computed.  The walk
    covers only the dynamic part — cache probes, stalls and the cycle
    clock; pair it with {!block_static} for the fixed event counts. *)
val block_step : t -> block_op array -> dyn:int array -> unit

(** Whole-block fast form for batched blocks whose events are only
    fetches and data reads.  Nothing in such a block reads the cycle
    clock, so totals commute: counter bumps are applied in bulk, the
    icache is probed once per distinct line of the block's body
    ([leaders], in program order) and the dcache once per load
    ([dyn.(0..nloads-1)], in program order).  Resulting counters, cycles
    and cache state are bit-identical to the per-instruction calls. *)
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
