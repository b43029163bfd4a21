(** A textual form of whole programs — the assembler/disassembler layer.

    {!to_string} and {!parse} round-trip exactly: [parse (to_string p)]
    rebuilds [p] (same procedures, blocks, instructions, globals and call
    sites), which the test suite checks on every workload.  The concrete
    syntax is what {!to_string} prints:

    {v
    program main=main
    global counts 16
    global bias 1 = ints 7
    proc add iparams=2 fparams=0 returns=int frame=0
    L0:
      r2 = add r0, r1
      ret r2
    v}

    The [pp] tool accepts this format for files ending in [.ppir]. *)

val to_string : Program.t -> string

exception Parse_error of int * string
(** Line number and message. *)

(** @raise Parse_error *)
val parse : string -> Program.t
