(** Procedures: an array of basic blocks indexed by label. *)

type return_kind = Returns_int | Returns_float | Returns_void

type t = private {
  name : string;
  iparams : int;  (** integer parameters arrive in [r0 .. riparams-1] *)
  fparams : int;  (** float parameters arrive in [f0 .. f(fparams-1)] *)
  returns : return_kind;
  blocks : Block.t array;
      (** index = label; {!make}'s own copy, which must not be mutated *)
  entry : Block.label;
  niregs : int;  (** number of integer registers used (including params) *)
  nfregs : int;
      (** Invariant: every register an instruction or terminator names is
          in [0 .. niregs-1] (integer) or [0 .. nfregs-1] (float).  Both
          counts are derived from the code, {!make} rejects an index below
          zero or at or above [Sys.max_array_length] (so [r + 1] cannot
          overflow), and it copies [blocks], so no later write to the
          caller's array can add a register.  The compiled engine relies
          on this for memory safety: its batched tier reads and writes
          registers without bounds checks. *)
  nsites : int;  (** number of call sites; sites are dense in [0..nsites-1] *)
  frame_words : int;
      (** stack words per activation, for local arrays ([Frameaddr]) *)
}

(** [make ~name ~iparams ~fparams ~returns ~blocks ~entry] computes register
    and call-site counts from the code.
    @raise Invalid_argument if block labels are not their indices, if the
    entry label is invalid, if an instruction or terminator names a
    register index below zero or at or above [Sys.max_array_length], or if call sites are not densely numbered from zero
    in order of appearance. *)
val make :
  frame_words:int ->
  name:string ->
  iparams:int ->
  fparams:int ->
  returns:return_kind ->
  blocks:Block.t array ->
  entry:Block.label ->
  t

(** [with_blocks p blocks] re-derives counts for an edited body; same checks
    as {!make}.  [entry] and [frame_words] override the originals (the
    instrumenter adds a preamble entry block and may reserve a spill
    slot). *)
val with_blocks :
  ?entry:Block.label -> ?frame_words:int -> t -> Block.t array -> t

val block : t -> Block.label -> Block.t
val num_blocks : t -> int

(** Static instruction slots of the whole body (terminators included). *)
val size_slots : t -> int

val iter_instrs : (Block.label -> Instr.t -> unit) -> t -> unit
val pp : Format.formatter -> t -> unit
