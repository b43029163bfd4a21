(** Static path feasibility for Ball–Larus numberings.

    Combines {!Constprop}'s never-executable edges with a symbolic replay
    of each path that detects branch correlation: a path whose
    straight-line code forces a later branch condition to a constant
    cannot take the other arm.  Both checks over-approximate concrete
    execution, so a path judged infeasible can never be observed
    dynamically — pruning it from the numbering is sound (the soundness
    property test in [test/test_feasibility.ml] exercises exactly this
    claim).

    Every verdict comes from one depth-first walk of the Ball–Larus DAG
    (from ENTRY, and from each backedge target), so paths that share a
    prefix share its replay; the test suite checks the walk against a
    replay of each sum on its own. *)

type verdict =
  | Feasible
  | Infeasible_edge of Pp_graph.Digraph.edge
      (** the path crosses a CFG edge constant propagation proved
          never-executable *)
  | Infeasible_branch of { block : Pp_ir.Block.label; value : int }
      (** replay showed this block's branch condition is the constant
          [value], contradicting the arm the path takes *)

type t

(** [analyze cfg bl] runs constant propagation once and, when
    [Ball_larus.num_paths bl <= 4096], classifies every path sum up
    front.  Beyond that bound no sum is classified: every query answers
    [Feasible] and no pruning is offered. *)
val analyze : Pp_ir.Cfg.t -> Pp_core.Ball_larus.t -> t

(** Whether the full path table was enumerated (a prerequisite for
    {!pruner} to offer a pruning). *)
val enumerated : t -> bool

(** The underlying constant-propagation fixpoint. *)
val constprop : t -> Constprop.t

(** A sum's verdict; [Feasible] for every sum when not enumerated. *)
val check : t -> int -> verdict

val feasible : t -> int -> bool

(** Count of feasible sums; equals [num_paths] when not enumerated. *)
val num_feasible : t -> int

(** Ascending; empty when not enumerated. *)
val infeasible_sums : t -> int list

(** One-shot convenience with the signature {!Pp_instrument.Instrument.run}
    expects for its [?pruner] argument; [None] when the path table is too
    large to enumerate. *)
val pruner :
  Pp_ir.Cfg.t ->
  Pp_core.Ball_larus.t ->
  Pp_core.Ball_larus.pruned option
