(** The virtual machine: executes a validated IR program against the
    simulated microarchitecture.

    Every instruction fetch, load, store, taken/not-taken branch and FP
    operation is reported to {!Pp_machine.Machine}, so the event counters
    describe the run exactly as UltraSPARC counters described a SPEC95 run —
    including the perturbation caused by any instrumentation code present in
    the program.  Profiling pseudo-ops dispatch to {!Runtime}. *)

exception Trap of string
(** Division by zero, unmapped or misaligned access, bad indirect-call
    target or arity, stack overflow, or the instruction budget running
    out. *)

type output_item = Oint of int | Ofloat of float

type result = {
  counters : (Pp_machine.Event.t * int) list;
  output : output_item list;  (** in emission order *)
  cycles : int;
  instructions : int;
}

type t

(** [create prog] lays the program out, allocates memory segments and
    initialises globals.  [max_instructions] bounds the run (default 2e9).
    The program is expected to be {!Pp_ir.Validate}-clean. *)
val create :
  ?config:Pp_machine.Config.t ->
  ?max_instructions:int ->
  ?merge_call_sites:bool ->
  Pp_ir.Program.t ->
  t

(** Select the events observed by the two PICs before running. *)
val select_pics : t -> pic0:Pp_machine.Event.t -> pic1:Pp_machine.Event.t -> unit

(** Execute [main] to completion.  @raise Trap *)
val run : t -> result

val machine : t -> Pp_machine.Machine.t
val memory : t -> Memory.t
val runtime : t -> Runtime.t
val layout : t -> Pp_ir.Layout.t

(** {2 Self-telemetry}

    Periodic counter samples ([ph:"C"] events named ["vm"]: cycles,
    instructions and both selected PIC totals) into a
    {!Pp_telemetry.Trace} sink, taken on block boundaries every
    [interval] simulated cycles.  Off by default — the sink starts as
    {!Pp_telemetry.Trace.null} and the sampling branch is guarded by the
    interval, so an un-telemetered run does no extra work and its
    results are byte-identical. *)

(** Enable before {!run}.  @raise Invalid_argument if [interval <= 0]. *)
val set_telemetry : t -> trace:Pp_telemetry.Trace.t -> interval:int -> unit

(** {2 Stack sampling}

    The Goldberg–Hall style comparison profiler of the paper's §7.2: every
    [interval] simulated cycles the VM records the current call stack.
    Sampling is approximate by construction (samples land on block
    boundaries) and its data is unbounded (one bucket per distinct stack) —
    the two drawbacks the paper holds against it. *)

(** Enable before {!run}.  @raise Invalid_argument if [interval <= 0]. *)
val enable_sampling : t -> interval:int -> unit

(** Distinct sampled call stacks (outermost procedure first, [main]
    included) with their hit counts; valid after {!run}. *)
val samples : t -> (string list * int) list

(** {2 Sampled instrumentation}

    A {!Sampling} controller gates the path-commit pseudo-ops: a gated-off
    commit skips its {!Runtime} dispatch entirely (no machine charges, no
    table write), except that a skipped hardware commit still re-anchors
    the PICs so counter state stays identical to an exhaustive run.  The
    gate sits in the shared prof dispatch, so it covers both engines.
    Install before {!run}. *)

val set_sampling : t -> Sampling.t -> unit

(** {2 Block-entry probe}

    A staged probe: [probe ~proc ~label] is the {e outer stage}, called at
    most once per (procedure, block) per VM, on the block's first entry
    after installation; it resolves whatever is static about the block
    and returns the {e inner stage}, which runs on every entry of that
    block with the activation's frame base ([fp] plus linkage, i.e. the
    address [Frameaddr r, 0] would produce) and the {e live} integer
    register array (do not mutate).  The array is valid only during the
    call and must not be retained: the compiled engine reuses an
    activation's register file for a later activation at the same call
    depth.  Copy what must outlive the call.  Both engines share the staged
    closures, and a probe installed after a first {!Engine.run} fires on
    the next one.  Installing a probe replaces any earlier one.

    Two oracles use it: the abstract-interpretation soundness oracle
    checks VM-observed register values against derived intervals, and
    the [pp predict] measurement oracle ([Pp_run.Predict_run]) attributes
    counter deltas to Ball–Larus path windows.  Off by default: an
    un-probed block pays one flag test on entry, and a probe does not
    make a compiled block run the full {!block_epilogue}. *)
val set_block_probe :
  t ->
  (proc:string -> label:Pp_ir.Block.label ->
   (frame:int -> iregs:int array -> unit)) ->
  unit

(** Read back a path-counter global (the array-mode tables the instrumenter
    plants in the data segment): [read_table_cells t ~global ~index ~cells]
    returns the [cells] consecutive words at entry [index]. *)
val read_table_cells : t -> global:string -> index:int -> cells:int -> int array

(** {2 Engine internals}

    The shared-state surface the closure-threaded {!Compile} engine
    executes against.  Both engines run over the same [t] — one layout,
    memory image, machine model, runtime and hook set — which is what
    makes their results bit-comparable.  Not intended for general use. *)

(** A block's entry hook: its staged block probe. *)
type entry

(** Per-procedure execution image: per-block instruction arrays, the
    laid-out address of every instruction slot, the terminator address,
    the activation frame size and the per-block entry hooks. *)
type image = {
  proc : Pp_ir.Proc.t;
  code : Pp_ir.Instr.t array array;  (** per block *)
  addrs : int array array;  (** per block, per instruction index *)
  term_addr : int array;  (** per block *)
  frame_bytes : int;  (** linkage area + local arrays *)
  nregs_i : int;  (** integer register file length, at least 1 *)
  nregs_f : int;  (** float register file length, at least 1 *)
  entries : entry array;  (** per block *)
}

(** The images, indexed like [Program.procs]. *)
val images : t -> image array

(** Index of [main] in {!images}. *)
val main_index : t -> int

(** Procedure index by name, as {!run} resolves direct calls. *)
val proc_index : t -> string -> int option

(** Procedure index by code address, as {!run} resolves indirect calls;
    [-1] when no procedure starts there.  Allocates nothing. *)
val proc_index_of_addr : t -> int -> int

(** The run's instruction budget. *)
val max_instructions : t -> int

val stack_pointer : t -> int
val set_stack_pointer : t -> int -> unit

(** Start a run from the stack base: [sp], the sampled call stack and
    the runtime's shadow stack and CCT cursor, wherever a trapped run left
    them.  Both engines call it first. *)
val start_run : t -> unit

(** Append one item to the program output. *)
val push_output : t -> output_item -> unit

(** Push/pop the sampled call stack on procedure entry/exit. *)
val push_activation : t -> string -> unit

val pop_activation : t -> unit

(** Two flags over the per-block hooks, maintained by the hook setters:
    [hooks] covers the entry hook (the block probe), [epilogue]
    the block-end ones (stack sampling, telemetry).  Compiled blocks
    capture the record once and poll the fields — while [hooks] is
    [false], {!block_entered} is a no-op, and while [epilogue] is
    [false], {!block_epilogue} reduces to the budget check, so either
    call can be elided. *)
type hot = private { mutable hooks : bool; mutable epilogue : bool }

val hot : t -> hot

(** Block-entry bookkeeping for the block of [entry]: its staged block
    probe.  [fp] is the raw frame pointer (the probe sees
    [fp + Pp_ir.Layout.linkage_bytes]). *)
val block_entered : entry -> fp:int -> iregs:int array -> unit

(** Block-end bookkeeping: budget check, stack sampling, telemetry —
    exactly what the interpreter runs between a block's last instruction
    and its terminator fetch.  @raise Trap when the budget is exhausted. *)
val block_epilogue : t -> unit

(** Execute one profiling pseudo-op against the runtime. *)
val dispatch_prof :
  t -> proc:string -> op_addr:int -> fp:int -> iregs:int array ->
  Pp_ir.Instr.prof_op -> unit

(** Snapshot counters and output into a {!result} (what {!run} returns
    after [main] completes). *)
val collect_result : t -> result

(** Raise {!Trap} with a formatted message. *)
val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** FP unit op class of an FP arithmetic instruction. *)
val fp_class : Pp_ir.Instr.fbinop -> Pp_machine.Fp_unit.op_class
