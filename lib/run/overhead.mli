(** Overhead and perturbation accounting (`pp overhead`).

    The paper's Tables 1 and 2 measure what profiling costs: Table 1 the
    execution-time overhead of each instrumentation mode against an
    uninstrumented baseline, Table 2 how the probes perturb the very
    hardware counters being profiled.  This module reproduces both for
    the simulated machine, and goes one step further than the paper
    could: because a measured path profile decodes into the {e exact}
    probe operations executed ({!Pp_analysis.Cost.measured_breakdown}),
    the instrumented-minus-baseline delta is attributed to probe
    categories whose integer parts are made to sum {e exactly} to the
    delta (largest-remainder apportionment) — checked by {!check} and
    gated in CI via the ["attribution: ok"] line {!render} emits. *)

(** Where an instrumented run spends its extra work. *)
type category =
  | Path_register  (** path-register inits, increments, backedge resets *)
  | Table_commit  (** array/hash/CCT/edge-counter table updates *)
  | Cct_probe  (** CCT enter/exit bookkeeping *)
  | Counter_read  (** PIC reads/writes by hardware-metric probes *)

type attribution = {
  category : category;
  probes : int;  (** exact executed-probe count for this category *)
  cycles : int;  (** apportioned share of the cycle delta *)
  instructions : int;  (** apportioned share of the instruction delta *)
}

type mode_row = {
  mode : string;  (** {!Pp_instrument.Instrument.mode_name} *)
  cycles : int;
  instructions : int;
  delta_cycles : int;  (** instrumented minus baseline *)
  delta_instructions : int;
  attributions : attribution list;  (** one per {!category}, in declaration order *)
  counters : (string * int) list;  (** every event counter after the run *)
}

type base = {
  base_cycles : int;
  base_instructions : int;
  base_counters : (string * int) list;
}

type report = {
  program : string;
  budget : int option;
  base : base;
  rows : mode_row list;  (** in requested-mode order *)
  failures : (string * string) list;  (** (mode name, reason) *)
}

(** Measure the baseline once, then every requested mode (default
    {!Pp_instrument.Instrument.all_modes}), fanning out over {!Pool.map}
    ([jobs] at a time; in-process by default).  A mode that traps or
    crashes lands in [failures] rather than aborting the report.
    Deterministic: the simulated machine makes the report byte-identical
    at any [jobs]. *)
val compute :
  ?budget:int ->
  ?engine:Pp_vm.Engine.kind ->
  ?jobs:int ->
  ?modes:Pp_instrument.Instrument.mode list ->
  program:string ->
  Pp_ir.Program.t ->
  report

(** [Ok ()] iff, for every row, the per-category attributions sum
    exactly to the measured delta (cycles and instructions). *)
val check : report -> (unit, string) result

(** Table 1 (overhead), the attribution table (ending in
    ["attribution: ok"] when {!check} passes), and Table 2
    (perturbation of every event counter).  Deterministic. *)
val render : report -> string

(** The same report as JSON (for [--json] / [OVERHEAD.json]). *)
val to_json : report -> string
