(** The closure-threaded compilation tier.

    {!create} translates every procedure of the program behind an
    {!Interp.t} into one pre-compiled closure per basic block: operands
    resolved to register-array slots at compile time, direct-threaded
    successor dispatch (a block's terminator tail-calls the next block's
    closure), and machine-model events batched per block through
    {!Pp_machine.Machine.block_step}.  Calls, profiling pseudo-ops and
    PIC access split a block into batched segments and run on a precise
    per-instruction tier; counters are flushed before every such
    observer, and a trapping segment replays the machine events of its
    completed prefix before re-raising — so counters, cycles, output,
    profiles and {!Interp.Trap} behaviour are bit-identical to
    {!Interp.run} over the same state.

    The compiled code executes against the interpreter's own state:
    hooks installed on the {!Interp.t} (telemetry, sampling, block
    trace, block probe) fire identically under either engine. *)

type t

(** Compile every procedure.  The program was already validated and laid
    out by {!Interp.create}. *)
val create : Interp.t -> t

(** Execute [main] to completion, like {!Interp.run}.
    @raise Interp.Trap *)
val run : t -> Interp.result
