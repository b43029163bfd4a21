(** End-to-end profiling sessions: instrument → execute → extract.

    This is what the [pp] command-line tool and the benchmark harness build
    on: the equivalent of running PP over a binary and collecting its
    profile files afterwards. *)

module Event = Pp_machine.Event
module Cct = Pp_core.Cct
module Profile = Pp_core.Profile

type session = {
  original : Pp_ir.Program.t;
  instrumented : Pp_ir.Program.t;
  manifest : Instrument.manifest;
  vm : Pp_vm.Interp.t;
  engine : Pp_vm.Engine.t;
      (** the execution engine wrapping [vm]; {!run} dispatches through
          it (default: {!Pp_vm.Engine.default}, the compiled tier) *)
  trace : Pp_telemetry.Trace.t;
      (** the session's telemetry sink; {!Pp_telemetry.Trace.null} unless
          [prepare] was given one *)
  sampling : Pp_vm.Sampling.t option;
      (** the sampled-instrumentation controller, when [prepare] was
          given one (installed on [vm]; its toggles work mid-run) *)
}

(** Instrument for [mode], build a VM, register the runtime tables and
    select the PIC events (default: [Dcache_misses], [Instructions] — the
    Table 4/5 configuration).  [pruner] enables static path-feasibility
    pruning: CCT per-record path tables are sized by the certified
    feasible count instead of the full potential-path count.

    [telemetry] receives [instrument] / [vm.setup] / [execute] /
    [extract.profile] spans from the session's phases; when
    [telemetry_interval] is also given, the VM samples its counters into
    the sink every that many simulated cycles
    ({!Pp_vm.Interp.set_telemetry}).  The default sink is
    {!Pp_telemetry.Trace.null}, under which every telemetry call site is
    a dead branch — results and profiles are byte-identical with
    telemetry off.

    [engine] selects the execution tier for {!run} (default
    {!Pp_vm.Engine.default}); both tiers are certified byte-identical by
    the differential suite, so the choice only affects speed.

    [sampling] installs a {!Pp_vm.Sampling} controller
    ({!Pp_vm.Interp.set_sampling}) and forces [array_threshold] to [0] in
    [options], so every path table uses a runtime-dispatched (and thus
    gateable) hash or CCT commit instead of inline array updates.
    Compare sampled sessions against an exhaustive session prepared with
    the same zero-threshold options. *)
val prepare :
  ?options:Instrument.options ->
  ?pruner:Instrument.pruner ->
  ?config:Pp_machine.Config.t ->
  ?max_instructions:int ->
  ?pics:Event.t * Event.t ->
  ?telemetry:Pp_telemetry.Trace.t ->
  ?telemetry_interval:int ->
  ?engine:Pp_vm.Engine.kind ->
  ?sampling:Pp_vm.Sampling.t ->
  mode:Instrument.mode ->
  Pp_ir.Program.t ->
  session

(** Execute to completion.  @raise Pp_vm.Interp.Trap *)
val run : session -> Pp_vm.Interp.result

(** Execute the {e uninstrumented} program under the same machine model —
    the paper's sampled baseline. *)
val run_baseline :
  ?max_instructions:int ->
  ?pics:Event.t * Event.t ->
  ?engine:Pp_vm.Engine.kind ->
  Pp_ir.Program.t ->
  Pp_vm.Interp.result

(** The flow-sensitive profile (array, hash and CCT-aggregated tables),
    valid after {!run}.  Procedures without path instrumentation are
    omitted. *)
val path_profile : session -> Profile.t

(** The calling context tree, valid after {!run} in a context mode. *)
val cct : session -> Pp_vm.Runtime.record_data Cct.t

(** The sampling controller's per-procedure [(sampled, total)] commit
    coverage, valid after {!run}; [[]] for unsampled sessions.  Attach to
    saved shards so sampled profiles carry their scaling certificate. *)
val coverage : session -> (string * (int * int)) list

(** {!path_profile} as a mergeable shard, valid after {!run}: stamped
    with the original program's hash and the session's mode, annotated
    with its sampling {!coverage} and, for every procedure the [pruner]
    certified, the feasible-path count ([[]] without a pruner). *)
val saved_profile : session -> Pp_core.Profile_io.saved

(** Reconstructed per-edge execution counts, valid after {!run} in
    [Edge_freq] mode: for each procedure, the plan and every CFG edge's
    count recovered from the chord counters. *)
val edge_profile :
  session ->
  (string
  * Pp_core.Edge_profile.t
  * (Pp_graph.Digraph.edge * int) list)
  list

(** Executed-path count per call site of a CCT record's procedure: for
    Table 3's "one path" column via {!Pp_core.Cct_stats.call_sites_one_path}.
    Uses the record's own path table and the procedure's numbering to find
    which call sites the executed paths cross. *)
val site_paths :
  session -> Pp_vm.Runtime.record_data Cct.node -> int -> int
