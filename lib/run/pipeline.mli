(** The profiler's pipeline steps, written once for every front end: the
    [pp] command line, [bench pgo] and the test suite all call these
    instead of wiring {!Pp_instrument.Driver}, {!Pp_opt} and the
    certifiers together themselves.

    Nothing here prints or exits: each step returns a value, a list of
    {!Pp_ir.Diag.t} findings, or an [Error] message (a trapped run's is
    ["trap: <message>"]).  Mapping those to text and exit codes is the
    front end's business. *)

module Instrument = Pp_instrument.Instrument
module Interp = Pp_vm.Interp
module Engine = Pp_vm.Engine

(** {2 Loading} *)

(** A MiniC file ([.mc]), a textual-IR file ([.ppir], validated) or a
    built-in workload by name.  Exactly one of [file] and [workload] must
    be given.  Parse and validation errors are located
    ([file:line: message]).  @raise Sys_error if [file] is unreadable. *)
val load :
  file:string option -> workload:string option ->
  (Pp_ir.Program.t, string) result

(** {2 Profile, optimize, re-measure} *)

(** Execute the uninstrumented program, [Error] if it traps. *)
val run_baseline :
  ?engine:Engine.kind -> budget:int -> Pp_ir.Program.t ->
  (Interp.result, string) result

(** Profile the program and summarise what the optimizer needs.  [`Cct]
    runs a flow-hw and a context-flow session (per-path hardware metrics
    plus the calling context tree); [`Flat] runs one edge-frequency
    session (the gprof-style ablation).  Sessions use the static
    feasibility pruner. *)
val summarize :
  ?engine:Engine.kind -> budget:int -> source:[ `Cct | `Flat ] ->
  Pp_ir.Program.t -> (Pp_opt.Summary.t, string) result

type optimized = {
  program : Pp_ir.Program.t;
  report : Pp_opt.Pgo.report;
  after : (Interp.result, string) result;
      (** the optimized program re-measured; [Error] if it trapped or its
          output differs from the baseline's *)
}

(** {!Pp_opt.Pgo.optimize} under the output guard: a candidate data
    placement is kept only if the program still prints what [base] (the
    baseline run of the input program) printed.  The result is then
    re-measured against [base]. *)
val optimize :
  ?engine:Engine.kind -> ?knobs:Pp_opt.Pgo.knobs -> budget:int ->
  base:Interp.result -> summary:Pp_opt.Summary.t -> Pp_ir.Program.t ->
  optimized

(** {2 Certification} *)

type certificate = {
  checks : (Instrument.mode * (Pp_ir.Diag.t list, string) result) list;
      (** per mode, in {!Instrument.all_modes} order: the static
          verifier's and the abstract interpreter's findings, or [Error]
          when the program cannot be instrumented in that mode *)
  predictions : (Predict_run.outcome list, string) result;
      (** per-path metric predictions checked against measured counters,
          one outcome per mode; [Error] at the first trapped run *)
}

(** Instrument the program in every mode, run [pp check]'s verifier and
    [pp prove]'s certifier on each, then [pp predict]'s measured
    re-validation. *)
val certify :
  ?engine:Engine.kind -> budget:int -> Pp_ir.Program.t -> certificate

(** No finding, no trap, nothing refuted. *)
val certified : certificate -> bool

(** {2 Seeded violations}

    The smallest edit that breaks one certified property, for self-tests
    of the certifier: a run over the mutant that finds nothing means the
    certifier has gone blind. *)

type inject =
  | Bounds  (** shrink the first counter-table global by one word *)
  | Taint
      (** copy the path location into original register 0 of the first
          procedure that has both *)

(** [inject kind ~original ~manifest instrumented] mutates an
    instrumented program; [Error] when it has nothing to mutate. *)
val inject :
  inject -> original:Pp_ir.Program.t -> manifest:Instrument.manifest ->
  Pp_ir.Program.t -> (Pp_ir.Program.t, string) result
