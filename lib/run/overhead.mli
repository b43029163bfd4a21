(** Overhead and perturbation accounting (`pp overhead`).

    The paper's Tables 1 and 2 measure what profiling costs: Table 1 the
    execution-time overhead of each instrumentation mode against an
    uninstrumented baseline, Table 2 how the probes perturb the very
    hardware counters being profiled.  This module reproduces both for
    the simulated machine and splits each mode's delta by two identities,
    each of which the run can refute:

    - {e instructions, by probe category}.  The instrumentation template
      that emits an inserted instruction tags its category
      ({!Pp_instrument.Editor.category}); a block probe adds each entered
      block's tagged count ({!Pp_instrument.Instrument.proc_info}
      [inserted]) and the runtime reports the one variable stub charge
      ({!Pp_vm.Runtime.cct_walk_insts}).  The categories must sum to the
      instruction delta.
    - {e cycles, by cause}.  Every run's cycles are its instructions (one
      issue cycle each) plus, per event, its count times the event's
      penalty in the machine the runs used.  So a mode's cycle delta is
      the probes' issue cycles plus the perturbation cycles of each event
      — Table 2's residual, in cycles.

    {!check} verifies both; {!render} prints its verdict
    (["attribution: ok"]), which CI gates on. *)

(** Where an instrumented run spends its extra instructions. *)
type category = Pp_instrument.Editor.category =
  | Path_register  (** path-register inits, increments, backedge resets *)
  | Table_commit  (** array/hash/CCT/edge-counter table updates *)
  | Cct_probe  (** CCT enter/call/exit bookkeeping *)
  | Counter_read  (** PIC reads/writes by hardware-metric probes *)

type mode_row = {
  mode : string;  (** {!Pp_instrument.Instrument.mode_name} *)
  direct : (category * int) list;
      (** instructions the inserted code retired, per category in
          {!Pp_instrument.Editor.categories} order; each is also that
          category's issue cycles *)
  counters : (Pp_machine.Event.t * int) list;
      (** every event counter after the run *)
}

type report = {
  program : string;
  budget : int option;
  penalties : (Pp_machine.Event.t * int) list;
      (** the cycles one occurrence of each event costs beyond issue:
          the i-cache and d-cache read miss penalties, and 1 for each
          stall counter *)
  base : (Pp_machine.Event.t * int) list;  (** the baseline's counters *)
  rows : mode_row list;  (** in requested-mode order *)
  failures : (string * string) list;  (** (mode name, reason) *)
}

(** Measure the baseline once, then every requested mode (default
    {!Pp_instrument.Instrument.all_modes}), fanning out over {!Pool.map}
    ([jobs] at a time; in-process by default).  A mode that traps or
    crashes lands in [failures] rather than aborting the report.
    Deterministic: the simulated machine makes the report byte-identical
    at any [jobs] and on either engine. *)
val compute :
  ?budget:int ->
  ?engine:Pp_vm.Engine.kind ->
  ?jobs:int ->
  ?modes:Pp_instrument.Instrument.mode list ->
  program:string ->
  Pp_ir.Program.t ->
  report

(** [Ok ()] iff, for the baseline and every row, cycles equal
    instructions plus each event's count times its penalty, and, for
    every row, the categories' instructions sum to the instruction delta.
    The error names the first run that fails and its residual. *)
val check : report -> (unit, string) result

(** Table 1 (overhead), the instruction split by category, the cycle
    split into issue and per-event perturbation cycles, {!check}'s
    verdict (["attribution: ok"] or ["attribution: MISMATCH (...)"]),
    and Table 2 (every event counter).  Deterministic. *)
val render : report -> string

(** The same report as JSON (for [--json] / [OVERHEAD.json]). *)
val to_json : report -> string
