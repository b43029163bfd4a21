(** The parallel run matrix: every workload under every instrumentation
    configuration — the paper's §6 evaluation grid — executed through the
    process {!Pool} and rendered as one deterministic report.

    Determinism contract: the simulated machine is deterministic, tasks are
    measured in isolated processes, and the report is a pure function of the
    outcome list in task order — so the report at [--jobs N] is
    byte-identical to the serial run for every N. *)

module Instrument = Pp_instrument.Instrument

type config = Base | Mode of Instrument.mode

val config_name : config -> string

(** [Base] plus all five instrumentation modes, in report order. *)
val all_configs : config list

type task = { workload : string; config : config }

type cell = {
  instructions : int;
  cycles : int;
  pic0 : int;  (** D-cache misses (the Table 4/5 PIC selection) *)
  pic1 : int;  (** instructions *)
  detail : string;  (** executed paths / call records / edge traversals *)
  saved : Pp_core.Profile_io.saved option;
      (** the shard's mergeable path profile, for modes that collect one *)
}

(** The full grid (default: all 18 workloads x {!all_configs}), in
    workload-major order. *)
val tasks : ?workloads:string list -> ?configs:config list -> unit -> task list

val default_budget : int

(** Measure every task, [jobs] at a time (default 1 = in-process), with
    the pool's wall-clock summary ({!Pool.footer}): for stderr, never for
    the deterministic report. *)
val run_footer :
  ?jobs:int ->
  ?timeout:float ->
  ?budget:int ->
  ?engine:Pp_vm.Engine.kind ->
  task list ->
  (task * cell Pool.outcome) list * string

(** Render the matrix; crashed and timed-out shards appear as their own
    rows, so one dying workload never hides the rest. *)
val report : (task * cell Pool.outcome) list -> string

(** Human-readable failure lines ("workload/config crashed: ..."). *)
val failures : (task * cell Pool.outcome) list -> string list
