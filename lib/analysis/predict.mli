(** Static per-path hardware-metric prediction.

    For every Ball–Larus path of every procedure, composes the
    {!Cachepred} must/may/persistence classifications with the machine's
    certified stall bounds ({!Pp_machine.Model}) into an interval
    [[lo, hi]] on what one {e measured window} of that path may add to
    each hardware counter — cycles, combined D-cache misses, I-cache
    misses and stall cycles.

    The window semantics mirror the [pp predict] measurement oracle
    exactly (see {!Pp_run.Predict_run}): a path's window opens at the
    probe of its first block and closes at the probe that opens the next
    one.  Three consequences shape the bounds:

    - a call suspends the window — events from the call instruction's
      successor to the end of that block belong to the {e callee}'s
      final (To_exit) window, so they are excluded here and accounted to
      the callee as a "tail" ({!tail_bound}): the worst caller-side
      segment that can run between a procedure's return and the next
      probe, chased transitively through returns (infinite on recursive
      return chains, which yields VACUOUS verdicts rather than unsound
      ones);
    - profiling stubs with data-dependent cost (the CCT enter walk)
      contribute ranges, unbounded when the call graph is cyclic;
    - an [After_backedge] path starts from the abstract cache state
      propagated along its backedge, which is what lets a hot inner
      path classify all-hit; references only {e persistence} saves are
      reported separately ([*_once]) — at most one miss per entry of the
      enclosing loop, a bound the report layer multiplies by the
      observed loop-entry count. *)

module Config = Pp_machine.Config
module Ball_larus = Pp_core.Ball_larus

(** [None] = unbounded. *)
type itv = { lo : int; hi : int option }

type metrics = { cycles : itv; dmiss : itv; imiss : itv; stalls : itv }

(** Worst caller-side work attributable to one To_exit window of a
    procedure, per metric ([None] = unbounded). *)
type tail = {
  t_cycles : int option;
  t_dmiss : int option;
  t_imiss : int option;
  t_stalls : int option;
}

type exec_bounds = {
  per_exec : metrics;  (** certified interval for one window *)
  dmiss_once : int;
      (** persistent D-lines read on the path: at most this many extra
          misses per entry of the enclosing loop, on top of [per_exec] *)
  imiss_once : int;
  cycles_once : int;  (** penalty cycles of those once-only misses *)
  header : Pp_ir.Block.label option;
      (** loop header the [*_once] bounds are charged against *)
  to_exit : bool;  (** sink is [To_exit]: add the procedure's tail *)
}

type t

(** Build the whole-program prediction context.  [config] is the
    {e modelled} machine (default {!Config.default}); [pp predict
    --inject] runs the execution on a different geometry to prove the
    oracle can catch a wrong model.  Procedures whose CFG the Ball–Larus
    numbering rejects are skipped ({!numbering} returns [None]). *)
val create :
  ?config:Config.t ->
  original:Pp_ir.Program.t ->
  instrumented:Pp_ir.Program.t ->
  unit ->
  t

(** The numbering predictions are keyed by — built on the {e original}
    CFG, identical to the instrumenter's. *)
val numbering : t -> string -> Ball_larus.t option

(** Feasibility analysis of the original CFG (for marking unexecuted
    paths in reports), built on the first call for [proc]; [None] for
    procedures without a numbering. *)
val feasibility : t -> string -> Feasibility.t option

val tail_bound : t -> string -> tail

(** Certified bounds for one execution of path [sum] of [proc].
    Not memoised: callers ask each sum once, and the walk shares its
    prefix with the previous path from the same source.
    @raise Invalid_argument on an unknown procedure or sum. *)
val predict : t -> proc:string -> sum:int -> exec_bounds

(** All procedure names with a numbering, sorted. *)
val procs : t -> string list

(** The data-cache and then the instruction-cache fixpoint of [proc]:
    each cache's geometry, every instrumented block's accesses and the
    solution. *)
val cache_solutions :
  t ->
  string ->
  (Config.cache_geometry * Cachepred.access array array * Cachepred.solution)
  list
[@@test_only "checks every kept out-state against a fresh transfer of its in-state"]
