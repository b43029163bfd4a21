(** Structured diagnostics with code locations.

    One diagnostic type is shared by the structural validator
    ({!Validate}) and the static instrumentation verifier
    ({!Pp_analysis.Verifier}), so that every reported defect carries a
    machine-readable location: the procedure, optionally the block, and
    optionally the instruction index within that block (0-based;
    [Terminator] designates the block's terminator). *)

type position = Instr of int | Terminator

type loc = {
  proc : string;
  block : Block.label option;
  position : position option;  (** meaningless without [block] *)
}

type severity = Error | Warning

type t = { severity : severity; loc : loc; message : string }

val proc_loc : string -> loc
val block_loc : string -> Block.label -> loc
val instr_loc : string -> Block.label -> int -> loc
val term_loc : string -> Block.label -> loc

val error : loc -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : loc -> ('a, Format.formatter, unit, t) format4 -> 'a

(** ["proc/L3/2: message"]-style rendering. *)
val to_string : t -> string
