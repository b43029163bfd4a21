(** Sound abstract interpreter over the CFG IR.

    Interprets one procedure with a reduced product of three components
    per integer register: a pointer base, an {!Interval} and a
    {!Congruence} (the interval's overflow verdict gates the congruence
    transfer), plus a {!Taint} bit threaded through every operation.
    Float registers carry taint only.  Constant-offset frame slots are
    tracked with strong updates; the address of any slot that escapes
    (stored to memory or passed to a call) is added to an escape hull,
    and calls havoc exactly the hulled slots — which is why a spilled
    path register survives calls: its address never escapes.

    The fixpoint widens at the natural-loop headers found by
    {!Pp_graph.Loops} after a short delay, with a visit-count safety net
    for irreducible retreating edges, then runs a bounded number of
    descending passes to recover precision lost to widening (sound:
    applying the monotone transfer to a post-fixpoint yields another
    over-approximation of the least fixpoint).

    Clients: the bounds and non-interference certifiers in [Verifier]
    (`pp prove`), and the runtime soundness oracle in the test suite. *)

type base =
  | Bnum  (** a plain integer: the numeric part is the value itself *)
  | Bglobal of string  (** base address of a global, plus offset *)
  | Bframe  (** the activation's frame pointer, plus offset *)
  | Bany  (** top; numeric parts are top too *)

type value = {
  base : base;
  itv : Interval.t;
  cong : Congruence.t;
  taint : Taint.t;
}

(** Abstract machine state at one program point. *)
type env

type config = {
  budget : int;  (** VM instruction budget the caps derive from *)
  pic_cap : int;  (** upper bound on any PIC reading *)
  cell_cap : int;  (** upper bound on any table-cell value *)
  widen_delay : int;  (** joins at a loop header before widening *)
  fuel : int;  (** joins anywhere before safety-net widening *)
  descend : int;  (** post-fixpoint narrowing passes *)
  policy : Taint.policy;
  tables : (string * int) list;  (** table global -> size in words *)
}

(** The PIC and table-cell caps are machine invariants derived from the
    instruction budget (a counter advances a bounded number of times per
    executed instruction), cross-checked against real executions by the
    runtime oracle. *)
val config :
  ?budget:int ->
  ?policy:Taint.policy ->
  ?tables:(string * int) list ->
  unit ->
  config

type t

val analyze : ?conf:config -> Pp_ir.Cfg.t -> t
val entry_env : t -> Pp_ir.Block.label -> env option

(** Replay a reached block with the fixpoint's transfer functions: [f]
    sees the environment immediately before each instruction, [post] the
    environment immediately after it.  Returns the environment before the
    terminator, or [None] when the block is unreached.

    The replay transfers one private copy of the block's entry
    environment in place, so the environment a callback receives is
    transient: read it during the call, and do not keep it — the next
    instruction overwrites it.  The stored {!entry_env} is never
    changed. *)
val iter_block :
  t ->
  Pp_ir.Block.label ->
  ?post:(pos:int -> env -> Pp_ir.Instr.t -> unit) ->
  (pos:int -> env -> Pp_ir.Instr.t -> unit) ->
  env option

val ireg : env -> Pp_ir.Instr.ireg -> value
val ftaint : env -> Pp_ir.Instr.freg -> Taint.t

(** Abstract address of [base + off]. *)
val address : env -> base:Pp_ir.Instr.ireg -> off:int -> value

(** Whether an address-offset interval lies entirely inside the
    instrumentation-owned frame-slot range of the policy. *)
val in_fresh_slots : config -> Interval.t -> bool

(** The transfer of one instruction, as a new environment: [env] is left
    as it was. *)
val transfer : config -> env -> Pp_ir.Instr.t -> env

(** Concretization membership for the runtime oracle: does machine value
    [x], given the activation's frame pointer and a resolver for global
    base addresses, lie inside the abstract value?  Components the oracle
    cannot resolve answer [true] — only definite violations count. *)
val admits :
  global_base:(string -> int option) -> frame:int -> value -> int -> bool

val pp_value : Format.formatter -> value -> unit
