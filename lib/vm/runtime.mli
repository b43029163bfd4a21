(** The profiling runtime — the library PP links into instrumented programs.

    Profiling pseudo-ops in the IR land here.  The runtime performs the real
    bookkeeping on host data structures (a {!Pp_core.Cct} with per-record
    metrics and path tables; hash tables for path-rich procedures) while
    charging the machine model the cost the equivalent SPARC stub would
    incur: instruction fetches inside the op's code footprint and loads and
    stores to the structures' *simulated* addresses, allocated from the
    profiling segment, so the instrumentation pollutes the D-cache, the
    I-cache and the store buffer like the real thing.

    The CCT construction protocol is the paper's: a global callee-slot
    pointer [gCSP] set by the caller just before each call ([Cct_call]);
    the callee looks its record up or creates it ([Cct_enter]), saving the
    old [gCSP] in its frame's linkage area and restoring it on [Cct_exit]. *)

module Machine = Pp_machine.Machine
module Counters = Pp_machine.Counters
module Cct = Pp_core.Cct

(** Per-call-record client data. *)
type record_data = {
  addr : int;  (** simulated address of the call record *)
  metrics : int array;
      (** [entries; m0; m1] — PIC-delta accumulators (context+HW mode) *)
  paths : (int, int ref) Hashtbl.t;
      (** path sum -> frequency (flow x context mode) *)
  mutable ptable_addr : int;
      (** simulated address of the record's path table, 0 until first use *)
}

type path_cells = { mutable freq : int; mutable m0 : int; mutable m1 : int }

type t

val create :
  ?merge_call_sites:bool ->
  machine:Machine.t ->
  memory:Memory.t ->
  prof_base:int ->
  unit ->
  t

(** Return to the CCT root with no pending call site and an empty shadow
    stack: a run that trapped leaves its activations on both stacks, and
    the next run must not start inside them. *)
val reset_activations : t -> unit

(** Declare a hash-mode path table before the run (assigned by the
    instrumenter to procedures with too many potential paths). *)
val register_hash_table : t -> table:int -> unit

(** Declare a flow×context path table (per-record tables are allocated
    lazily; [npaths] sizes their simulated footprint). *)
val register_cct_table : t -> table:int -> npaths:int -> unit

(** {2 Hooks called by the interpreter}

    [op_addr] is the pseudo-op's code address (the stub's location);
    [fp] is the executing frame's base (its linkage area holds the saved
    gCSP and entry PIC values). *)

val cct_call : t -> site:int -> indirect:bool -> op_addr:int -> unit

val cct_enter :
  t -> proc_name:string -> nsites:int -> op_addr:int -> fp:int -> unit

val cct_exit : t -> op_addr:int -> fp:int -> unit
val cct_metric_enter : t -> op_addr:int -> fp:int -> unit
val cct_metric_exit : t -> op_addr:int -> fp:int -> unit
val cct_metric_backedge : t -> op_addr:int -> fp:int -> unit

val path_commit_hash :
  t -> table:int -> key:int -> hw:bool -> op_addr:int -> unit

val path_commit_cct : t -> table:int -> key:int -> op_addr:int -> unit

(** {2 Results} *)

val cct : t -> record_data Cct.t

(** Hash-mode counts for a table.  @raise Not_found if never registered. *)
val hash_table_counts : t -> table:int -> (int * path_cells) list

(** Bytes of profiling memory allocated (call records, path tables, hash
    buckets) — the basis of Table 3's Size column. *)
val prof_bytes_allocated : t -> int

(** Instructions [Cct_enter]'s slot-miss walks retired so far:
    {!Pp_ir.Instr.cct_enter_per_ancestor} per ancestor visited.  This is
    the one stub charge that varies per call; every other charge is the
    fixed {!Pp_ir.Instr.insts} of the op. *)
val cct_walk_insts : t -> int
