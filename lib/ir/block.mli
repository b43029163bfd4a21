(** Basic blocks: a straight-line instruction sequence plus one terminator.

    Calls are ordinary instructions, not terminators — intraprocedural paths
    pass through call sites, exactly as in PP, and the profiler saves and
    restores hardware counters around the callee rather than ending the
    path. *)

type label = int

type ret_val =
  | Ret_int of Instr.ireg
  | Ret_float of Instr.freg
  | Ret_void

type terminator =
  | Jmp of label
  | Br of Instr.ireg * label * label
      (** [Br (r, t, f)]: if [r <> 0] go to [t] else [f] *)
  | Ret of ret_val

type t = { label : label; instrs : Instr.t list; term : terminator }

(** Labels this block can transfer control to, in branch order
    (true arm before false arm). *)
val successors : t -> label list

(** Instruction slots occupied, terminator included. *)
val slots : t -> int

val pp : Format.formatter -> t -> unit
