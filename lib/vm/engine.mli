(** Execution-engine selection: the per-instruction {!Interp}reter or
    the closure-threaded {!Compile}d tier.

    Both engines run over the same {!Interp.t} state and are certified
    byte-identical by the differential suite ([test_compile]), so the
    choice is a pure speed knob; the compiled tier is the default.  An
    engine wraps the VM it runs — hooks ({!Interp.set_telemetry},
    {!Interp.set_block_probe}, tracing, sampling) are installed on
    {!vm} and fire under either engine. *)

type kind = Interpreted | Compiled

(** The default engine: {!Compiled}. *)
val default : kind

(** Both kinds, in [--engine] listing order. *)
val kinds : kind list

(** CLI name: ["interp"] or ["compiled"]. *)
val kind_name : kind -> string

val kind_of_string : string -> kind option

type t

(** Wrap an existing VM.  Compilation (for {!Compiled}) happens lazily on
    the first {!run}. *)
val of_vm : ?kind:kind -> Interp.t -> t

(** {!Interp.create} plus engine selection. *)
val create :
  ?kind:kind ->
  ?config:Pp_machine.Config.t ->
  ?max_instructions:int ->
  Pp_ir.Program.t ->
  t

(** The underlying shared VM state. *)
val vm : t -> Interp.t

val kind : t -> kind

(** Execute [main] to completion on the selected engine.
    @raise Interp.Trap *)
val run : t -> Interp.result
