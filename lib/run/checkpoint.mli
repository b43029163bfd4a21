(** Resumable sharded runs ([pp run --shards K --checkpoint-dir DIR]).

    {!run} executes the program in [K] pool workers and sums their
    results in shard order.  Each worker saves its shard's result as
    [DIR/shard-<k>.ckpt] the moment the shard completes; a re-invocation
    loads the valid checkpoints and runs only the missing shards, so its
    total is byte-identical to an uninterrupted run's.

    A checkpoint is {!Pp_core.Crc32.frame}d, like a profile shard, with
    floats in exact hex notation, and written atomically.  One that is
    damaged, truncated, in an older format, or recorded under another
    [key] (program and budget) loads as [None]: the shard reruns, so
    resumption can never poison a result. *)

(** Execute the program once, uninstrumented, recording [run.instructions]
    and [run.cycles] in [Pp_telemetry.Metrics.default].
    @raise Pp_vm.Interp.Trap when the program traps. *)
val run_once :
  ?engine:Pp_vm.Engine.kind -> budget:int -> Pp_ir.Program.t -> Pp_vm.Interp.result

type report = {
  shards : int;
  resumed : int;  (** shards loaded from checkpoints, not run *)
  failed : (int * string) list;
      (** shards that failed every attempt, with the failure, in order *)
  completed : int;  (** shards with a result, resumed or run *)
  total : Pp_vm.Interp.result option;
      (** the completed shards' instructions, cycles and counters summed
          in shard order, with the first one's output; [None] if every
          shard failed *)
  divergent : int list;
      (** positions among the completed shards whose output differs from
          the first's (nondeterminism) *)
  footer : string;  (** the pool's wall-clock summary, for stderr *)
}

(** Some shard has no result: coverage is partial. *)
val degraded : report -> bool

(** [run ?dir ~budget ~shards prog]: {!run_once} in [shards] pool
    workers, [jobs] at a time (default 1, in-process), each attempted up
    to [retries] times (default 1).  With [dir], checkpointed shards are
    resumed and every shard that completes is saved from its worker.
    Sets the [run.shards] gauge when some shard completed. *)
val run :
  ?dir:string ->
  ?engine:Pp_vm.Engine.kind ->
  budget:int ->
  ?jobs:int ->
  ?retries:int ->
  shards:int ->
  Pp_ir.Program.t ->
  report
