(** Static instrumentation cost / perturbation report (`pp cost`).

    For every procedure under a given instrumentation mode: the number of
    probe sites, the code-size growth in instruction slots, the
    potential/feasible path counts, and the {!Freq}-estimated probe
    executions per invocation.  When a dynamic profile from `pp run` is
    supplied, the report also derives the {e exact} number of executed
    path probes per procedure (each profiled path decodes into the precise
    edges it crossed) and prints the estimated-versus-measured comparison
    with per-procedure and total error.

    Supplying a profile also enforces two cross-layer invariants as
    structured errors: no dynamically observed path may be statically
    infeasible, and a shard's feasible-path annotations must match what
    the analysis computes. *)

type measured = {
  invocations : int;  (** executed [From_entry] paths *)
  probes : int;  (** executed path-probe operations, derived exactly *)
}

type row = {
  proc : string;
  blocks : int;
  npaths : int;  (** 0 when the mode does not number paths *)
  nfeasible : int option;
      (** [None] when the path table was too large to enumerate or the
          mode does not number paths *)
  probe_sites : int;
  added_slots : int;
  est_path : float;  (** estimated path/edge-probe executions per call *)
  est_ctx : float;  (** estimated context-probe executions per call *)
  measured : measured option;
}

type report = { mode : Pp_instrument.Instrument.mode; rows : row list }

(** Exact per-category decode of a measured path profile: every profiled
    path replays into the precise probe operations it executed under the
    (recomputed) placement.  [commits] counts one table commit per
    traversal — every traversal ends in exactly one — of which
    [backedge_commits] happened inside a backedge operation (the rest are
    return-edge commits).  The telemetry overhead accountant
    ({!Pp_overhead.Overhead}) consumes this; {!compute} reports
    [probes = inits + increments + commits]. *)
type breakdown = {
  entry_traversals : int;  (** executed [From_entry] traversals *)
  inits : int;  (** executed entry path-register initialisations *)
  increments : int;  (** executed path-register increments *)
  commits : int;  (** executed table commits (one per traversal) *)
  backedge_commits : int;  (** commits executed by backedge operations *)
}

(** [measured_breakdown bl paths] decodes a procedure's measured path
    profile ([(path sum, metrics)] pairs as stored in
    {!Pp_core.Profile.proc}) against the placement the given [options]
    produce.  Exact: no modeling slack. *)
val measured_breakdown :
  ?options:Pp_instrument.Instrument.options ->
  Pp_core.Ball_larus.t ->
  (int * Pp_core.Profile.path_metrics) list ->
  breakdown

val compute :
  ?options:Pp_instrument.Instrument.options ->
  mode:Pp_instrument.Instrument.mode ->
  ?profile:Pp_core.Profile_io.saved ->
  Pp_ir.Program.t ->
  (report, Pp_ir.Diag.t) result

(** Deterministic plain-text rendering (CI diffs it byte-for-byte). *)
val render : report -> string

(** Single-line JSON rendering of the same report, following the
    [pp overhead --json] conventions ([null] for absent optionals). *)
val to_json : report -> string
