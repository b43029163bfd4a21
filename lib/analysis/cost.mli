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
