(** The [pp predict] certification harness: run a workload with the
    measurement oracle attached, then check every measured per-path
    counter delta against the static bounds of {!Pp_analysis.Predict}.

    {b The oracle.}  A staged block probe
    ({!Pp_vm.Interp.set_block_probe}) fires at every instrumented-block
    entry, before any of the block's fetches, carrying the probing frame
    base.  Its outer stage, run once per block, captures the block's
    procedure tables, its instrumented predecessors and whether it is an
    original block.  The oracle keeps a pooled stack of {e activations}
    keyed by frame and attributes counter deltas to the open window of
    the topmost activation.  Structure is recovered exactly, without any
    help from the instrumentation:

    - a probe with a frame {e larger} than the top's pops activations
      (returns), closing their windows with sink [To_exit];
    - a probe matching the top's frame continues that activation iff the
      instrumented CFG has an edge from its last probed block to the
      probed one — the last probed block of a finished activation is its
      [Ret] block, which has no out-edges, so an equal-frame sibling
      call can never be mistaken for a transition (this continuation is
      the probe's fast path; calls, returns and siblings take the slow
      one);
    - within an activation, a transition between original blocks that is
      a Ball–Larus backedge closes the window ([Into_backedge]) and
      opens the next ([After_backedge]), mirroring where the
      instrumenter commits path sums.

    A window accumulates its Ball–Larus path sum step by step as its
    original blocks are probed, from per-procedure tables built once per
    run ({!Pp_core.Ball_larus.entry_step}, {!Pp_core.Ball_larus.step},
    {!Pp_core.Ball_larus.backedge_between},
    {!Pp_core.Ball_larus.exit_step}).  Counter deltas are flushed
    lazily, only before the top activation or its window changes; they
    are integer sums, so the totals are exact.  Closed windows commit to
    a per-procedure table keyed by path sum.  A window's
    blocks sit in one shared stack buffer and are read only to word an
    {e anomaly} (a missing step, i.e. a soundness bug): the recorded
    path is re-encoded with {!Pp_core.Ball_larus.encode}, and the
    anomaly is reported and reflected in the exit code.  A trapped run
    discards open windows and keeps the closed ones.

    {b Verdicts.}  For a path measured [freq] times with summed delta
    [m] on a metric, the certified interval is
    [freq*lo <= m <= freq*hi + min(freq, entries)*once + freq*tail],
    where [entries] counts entries of the loop the path's persistence
    bound is charged against, and [tail] is the callee-tail bound for
    [To_exit] paths.  [REFUTED] (measurement outside the interval)
    makes {!exit_code} 2; [VACUOUS] means unbounded, or looser than
    [vacuous_slack] cycles/events of slack per window even against a
    zero measurement ([hi - lo > vacuous_slack * max freq measured]);
    otherwise [CONFIRMED]. *)

module Config = Pp_machine.Config
module Instrument = Pp_instrument.Instrument
module Engine = Pp_vm.Engine
module Predict = Pp_analysis.Predict

type verdict = Confirmed | Refuted | Vacuous

(** One metric of one path: measurement vs certified total bounds. *)
type mstat = {
  metric : string;  (** ["cycles"], ["dmiss"], ["imiss"] or ["stalls"] *)
  measured : int;
  lo : int;
  hi : int option;  (** [None] = unbounded *)
  mverdict : verdict;
}

type row = {
  proc : string;
  sum : int;  (** Ball–Larus path sum *)
  freq : int;  (** closed measurement windows *)
  path_desc : string;
  stats : mstat list;  (** the four metrics, fixed order *)
  rverdict : verdict;  (** worst of [stats] *)
}

type outcome = {
  mode : Instrument.mode;
  engine : Engine.kind;
  injected : string option;
  rows : row list;  (** procedure-major, then by path sum *)
  windows : int;  (** total closed windows *)
  anomalies : string list;  (** oracle inconsistencies — must be empty *)
  trapped : bool;
  confirmed : int;
  refuted : int;
  vacuous : int;
  mean_slack : float;
      (** mean of [(hi - lo) / max freq measured] over bounded stats:
          the tightness figure of merit *)
}

(** {2 Fault injection}

    [pp predict --inject] executes on a deliberately mutated geometry
    while the analysis keeps modelling the configured one, proving the
    oracle actually catches a wrong model (the gate expects exit 2). *)

type inject =
  | Dcache_size  (** halve the D-cache size *)
  | Icache_line  (** halve the I-cache line size *)

val injects : inject list
val inject_name : inject -> string
val inject_of_string : string -> inject option

(** Instrument for [mode], execute (on the [inject]-mutated geometry if
    any) with the oracle attached, and certify against the modelled
    machine, {!Config.default}.  [budget] bounds executed instructions;
    [vacuous_slack] (default 8.0) is the looseness threshold above which
    a bounded verdict degrades to [Vacuous]. *)
val run :
  ?inject:inject ->
  ?engine:Engine.kind ->
  ?budget:int ->
  ?vacuous_slack:float ->
  mode:Instrument.mode ->
  Pp_ir.Program.t ->
  outcome

(** 2 when any outcome has a refuted row or an anomaly, else 0. *)
val exit_code : outcome list -> int

(** Located one-line diagnostics for every refuted stat and anomaly. *)
val errors : outcome -> string list

val render_table : Format.formatter -> outcome -> unit

(** All outcomes as one compact JSON document. *)
val to_json : outcome list -> string
