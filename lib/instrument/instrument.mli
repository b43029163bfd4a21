(** Whole-program instrumentation — the core of the PP tool.

    The four configurations mirror the paper's measurements:
    - {!Flow_freq}: Ball–Larus path frequencies only (the BL96 baseline);
    - {!Flow_hw}: paths with two hardware metrics ("Flow and HW");
    - {!Context_hw}: CCT with per-record metric deltas ("Context and HW");
    - {!Context_flow}: CCT whose records hold path-frequency tables
      ("Context and Flow" — the flow×context combination of §4.3). *)

module Ball_larus = Pp_core.Ball_larus

type mode =
  | Edge_freq
      (** efficient edge profiling (BL94) — the overhead baseline the paper
          compares path profiling against *)
  | Flow_freq
  | Flow_hw
  | Context_hw
  | Context_flow

type options = {
  optimize_placement : bool;
      (** chord placement over a spanning tree (Fig. 1(d)) instead of one
          increment per labelled edge, weighted by static loop-depth
          frequency estimates ({!Pp_core.Static_weights}) *)
  array_threshold : int;
      (** procedures with at most this many potential paths use an array
          of counters; beyond it, the runtime hash table *)
  backedge_metric_reads : bool;  (** §4.3 reads on loop backedges (A4) *)
  caller_saves : bool;
      (** save/restore PICs at call sites instead of callee entry/exit
          (A3) *)
  spill_threshold : int;
      (** procedures already using at least this many integer registers
          spill the path register to the frame *)
  merge_call_sites : bool;  (** CCT slots merged per §4.1 (A2) *)
  only : string list option;
      (** instrument only these procedures ([None] = all).  Partial
          instrumentation follows the paper's gCSP discipline: an
          instrumented procedure called through uninstrumented frames is
          recorded as a child of its nearest instrumented ancestor.  This
          is what iterative schemes like Hall's call-path profiling (§7.2)
          need. *)
}

val default_options : options

(** The increment placement [options] choose for a numbering: BL96's
    spanning-tree chords weighted by {!Pp_core.Static_weights} under
    [optimize_placement], else one increment per labelled edge. *)
val placement : options -> Ball_larus.t -> Ball_larus.placement

type table =
  | No_table
  | Array_table of { global : string; cells : int }
  | Hash_table of { id : int }
  | Cct_table of { id : int }
  | Edge_table of { global : string; plan : Pp_core.Edge_profile.t }

type proc_info = {
  proc : string;
  numbering : Ball_larus.t option;  (** None when paths are not profiled *)
  table : table;
  num_paths : int;
  spilled : bool;
  path_loc : Path_instr.path_loc option;
      (** where the path register lives, when paths are profiled — the
          anchor the static verifier traces *)
  pruned : Ball_larus.pruned option;
      (** statically pruned numbering from the [?pruner] callback; probe
          constants and path sums are unchanged, but the runtime sizes
          hash/CCT tables by its feasible count *)
  inserted : int array array;
      (** per block of the instrumented procedure, the instructions its
          inserted code retires on each entry, by {!Editor.category}
          ([inserted.(label).(i)] for the [i]th of
          {!Editor.categories}; [[||]] when not instrumented) *)
}

(** A static path-feasibility analysis, supplied by callers (typically
    [Pp_analysis.Feasibility.pruner] — the dependency points that way, so
    the instrumenter only sees this callback type).  [None] means the
    procedure's path table was too large to certify. *)
type pruner = Pp_ir.Cfg.t -> Ball_larus.t -> Ball_larus.pruned option

type manifest = {
  mode : mode;
  options : options;
  infos : proc_info list;
}

(** [run ~mode prog] instruments every procedure, adding counter-array
    globals as needed.  The result still passes {!Pp_ir.Validate}. *)
val run :
  ?options:options -> ?pruner:pruner -> mode:mode -> Pp_ir.Program.t ->
  Pp_ir.Program.t * manifest

val mode_name : mode -> string

(** The five modes in the paper's order, edge profiling first. *)
val all_modes : mode list

(** Does the mode commit Ball-Larus paths (flow-freq, flow-hw,
    context-flow) — the modes with a path profile, a mergeable shard and
    commits to sample? *)
val profiles_paths : mode -> bool

(** Does the mode build a calling context tree (context-hw,
    context-flow)? *)
val profiles_context : mode -> bool

(** {2 Instrumentation-state footprint}

    Everything a procedure's probes own, for the abstract-interpretation
    certifier ({!Pp_analysis} [Verifier.prove_proc]): fresh register and
    frame-slot ranges are half-open ([lo, hi)) deltas between the original
    and instrumented procedures — the Editor allocates monotonically from
    the original counts, so the deltas are exact. *)
type state = {
  fresh_iregs : int * int;  (** integer registers the probes introduced *)
  fresh_fregs : int * int;
  fresh_slots : int * int;  (** frame byte offsets owned by the probes *)
  path_home : Path_instr.path_loc option;
  table_globals : string list;  (** counter-array globals, if any *)
}

val state :
  original:Pp_ir.Proc.t ->
  instrumented:Pp_ir.Proc.t ->
  proc_info ->
  state
