(** Conditional constant propagation (block-granular SCCP).

    Tracks per-register compile-time constants and propagates only along
    CFG edges proven executable; a conditional branch with a constant
    condition enables just the matching arm.  Constant folding mirrors the
    VM's integer semantics exactly (native-width arithmetic, 6-bit shift
    masking, arithmetic right shift); division or remainder by a constant
    zero folds to {!Top} because the VM traps there.

    Results feed the feasibility pruner ({!Feasibility}), the static
    frequency estimator ({!Freq}) and the constant-branch lints
    ({!Lint}). *)

type value =
  | Top  (** unknown / any value *)
  | Const of int

type t

val analyze : Pp_ir.Cfg.t -> t

(** True when the block is reachable along executable edges only; blocks
    guarded by statically-false branches are not. *)
val reachable : t -> Pp_ir.Block.label -> bool

(** True when the fixpoint proved the edge can be taken.  Never-executable
    edges are exactly the statically infeasible ones. *)
val edge_executable : t -> Pp_graph.Digraph.edge -> bool

(** Register state on exit from a reached block (a fresh copy); [None]
    when the block is unreached. *)
val exit_state : t -> Pp_ir.Block.label -> value array option

(** For a reached block ending in [Br], the condition register's abstract
    value at the terminator; [None] otherwise. *)
val branch_value : t -> Pp_ir.Block.label -> value option

(** Destructively advance a register state across one instruction, using
    the same folding rules as the fixpoint.  Exposed for path-sensitive
    clients that replay straight-line code ({!Feasibility}). *)
val transfer : value array -> Pp_ir.Instr.t -> unit
