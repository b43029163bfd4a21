(** Imperative construction of procedures, used by the MiniC lowering pass,
    the instrumenter's stubs and the test suite.

    A builder maintains a current block; instructions are appended to it
    with {!emit} and the block is finished with {!terminate}.  Call sites
    are numbered automatically in emission order. *)

type t

val create :
  name:string ->
  iparams:int ->
  fparams:int ->
  returns:Proc.return_kind ->
  t

(** Grow the frame, returning the byte offset of [words] fresh stack words
    (for a local array). *)
val alloc_frame : t -> words:int -> int

(** Fresh integer register.  Registers [0 .. iparams-1] are the parameters
    and are pre-allocated. *)
val new_ireg : t -> Instr.ireg

val new_freg : t -> Instr.freg

(** Fresh block label; does not switch to it.  The first block created is
    the procedure entry. *)
val new_block : t -> Block.label

(** Switch the emission point.  A block may only be filled once.
    @raise Invalid_argument if the block was already terminated. *)
val switch_to : t -> Block.label -> unit

(** @raise Invalid_argument if no block is current. *)
val emit : t -> Instr.t -> unit

(** Emit a direct call, assigning the next call-site number. *)
val emit_call :
  t ->
  callee:string ->
  args:Instr.ireg list ->
  fargs:Instr.freg list ->
  ret:Instr.ret_dest ->
  unit

(** Emit an indirect call through a register holding a procedure address. *)
val emit_callind :
  t ->
  target:Instr.ireg ->
  args:Instr.ireg list ->
  fargs:Instr.freg list ->
  ret:Instr.ret_dest ->
  unit

(** Terminate the current block; emission then requires [switch_to]. *)
val terminate : t -> Block.terminator -> unit

(** @raise Invalid_argument if any created block was never terminated. *)
val finish : t -> Proc.t
