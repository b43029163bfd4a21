(** Procedure editing — the slice of EEL's functionality PP relied on.

    An editor wraps one procedure and accumulates edits:
    - fresh registers (and a reserved spill slot in the frame);
    - instructions at procedure entry (in a fresh preamble block, so that
      code "on the ENTRY edge" never re-executes when the original entry
      block is a loop target);
    - instructions on a CFG edge (placed in the source block when the edge
      is its only departure, in the destination block when the edge is its
      only arrival, and in a freshly split block otherwise);
    - instructions before every return;
    - instructions before and after call instructions.

    Edits are denominated in original block labels and original CFG edges;
    [finish] materialises them into a new procedure.

    Every edit names the probe {!category} its code belongs to — the
    template that emits the code decides, once — and [finish] turns those
    tags into per-block counts of the instructions the inserted code
    retires on each entry of the block. *)

module Digraph = Pp_graph.Digraph

(** What an inserted instruction is for. *)
type category =
  | Path_register  (** path-register inits, increments, backedge resets *)
  | Table_commit  (** array/hash/CCT/edge-counter table updates *)
  | Cct_probe  (** CCT enter/call/exit bookkeeping *)
  | Counter_read  (** PIC reads/writes by hardware-metric probes *)

(** In declaration order; {!finish}'s counts are indexed by position in
    this list. *)
val categories : category list

type t

val create : Pp_ir.Proc.t -> t

(** The procedure as given (before edits). *)
val original : t -> Pp_ir.Proc.t

(** The CFG the edit coordinates refer to. *)
val cfg : t -> Pp_ir.Cfg.t

val new_ireg : t -> Pp_ir.Instr.ireg

(** Reserve one frame word; returns the [Frameaddr] byte offset. *)
val alloc_spill_slot : t -> int

val at_entry : t -> category -> Pp_ir.Instr.t list -> unit

(** [on_edge t cat edge instrs] — [edge] must belong to [cfg t]'s graph and
    not be the ENTRY edge (use {!at_entry}) . Multiple calls on one edge
    append in order. *)
val on_edge : t -> category -> Digraph.edge -> Pp_ir.Instr.t list -> unit

val before_returns : t -> category -> Pp_ir.Instr.t list -> unit

(** [around_calls t cat f] — for every call instruction, [f ~site ~indirect]
    returns [(before, after)] instruction lists spliced around it. *)
val around_calls :
  t ->
  category ->
  (site:int -> indirect:bool -> Pp_ir.Instr.t list * Pp_ir.Instr.t list) ->
  unit

(** Build the edited procedure, with the instructions the inserted code
    retires on one entry of each of its blocks ({!Pp_ir.Instr.insts}),
    per category: [counts.(label).(i)] for the [i]th of {!categories}.
    The jump ending a block the editor adds (an edge split or the entry
    preamble) counts with the block's first inserted instruction, or,
    when the block has none, with the editor's first edit.
    @raise Invalid_argument on conflicting edits. *)
val finish : t -> Pp_ir.Proc.t * int array array
