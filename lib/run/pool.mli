(** A process pool for the run matrix.

    Each task runs in a forked child; the child marshals its result back
    over a pipe and exits.  A crashing or diverging workload therefore takes
    down only its own shard: the parent reports the loss and the rest of the
    matrix completes.  Results come back in task order regardless of
    completion order, which is what makes parallel reports byte-identical to
    serial ones.

    Workers also ship their {!Pp_telemetry.Metrics} delta (what they
    recorded into [Metrics.default] since the fork) alongside the result;
    the parent absorbs it, so metrics aggregate identically at any
    [jobs]. *)

type 'a outcome =
  | Done of 'a
  | Crashed of string
      (** the task raised, exited nonzero, or died on a signal.  A raised
          [Failure msg] reads [msg] and {!Pp_core.Crc32.Killed_mid_write}
          reads ["killed mid-write"]; any other exception is rendered by
          [Printexc.to_string]. *)
  | Timed_out of float  (** killed after running this many seconds *)

type task_stat = {
  task : int;  (** input-order index *)
  wall : float;  (** seconds the worker ran, summed over its attempts *)
  status : string;  (** {!describe} of its final outcome *)
  attempts : int;  (** how many times the task ran (1 = no retry) *)
}

type stats = {
  jobs : int;
  tasks : int;
  ok : int;
  crashed : int;
  timed_out : int;
  retried : int;  (** tasks that needed more than one attempt *)
  quarantined : int;
      (** tasks that exhausted their attempt budget and stayed failed *)
  attempts : int;  (** total attempts across all tasks *)
  total_wall : float;  (** seconds from first spawn to last reap *)
  task_stats : task_stat list;  (** in task order *)
}

(** [map ~jobs f xs] evaluates [f] over [xs] with at most [jobs]
    concurrent workers, returning outcomes in input order.

    With [jobs <= 1] — or on platforms without [Unix.fork] — tasks run
    in-process (exceptions still isolate as [Crashed], but a [timeout]
    given to {!map_stats} or {!map_retry} is not enforced: there is no
    process to kill).  Results must be marshalable
    (no closures); a torn or unreadable result is reported as [Crashed],
    never silently dropped.  Result pipes are drained with a loop — a
    payload larger than the pipe capacity arrives as many partial reads,
    never torn.

    Worker stderr is serialized through the parent: each worker writes
    to a private capture, replayed in one atomic write when the worker
    is reaped, so concurrent workers' diagnostics (and the parent's
    {!footer}) never interleave mid-line. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b outcome list

(** {!map} plus per-task wall times and outcome counts for the summary
    footer.  Also bumps the [pool.*] counters in [Metrics.default]
    (jobs-independent, so metric dumps stay byte-identical at any
    [--jobs]).  Equivalent to {!map_retry} with a budget of one
    attempt. *)
val map_stats :
  ?jobs:int ->
  ?timeout:float ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list * stats

(** [map_retry ~retries f xs] is {!map_stats} with a per-task attempt
    budget: a task whose outcome is [Crashed] or [Timed_out] is rerun up
    to [retries] times total (default 1, i.e. no retry; values [< 1] are
    clamped to 1).  Before attempt [a+1] of a task that failed attempt
    [a], the pool waits [min 1.0 (0.05 *. 2.0 ** (a-1))] seconds, scaled
    by a jitter in [1 ± 0.5] drawn from [Pp_vm.Sampling.mix [0; task; a]],
    so a chaos run's retry schedule replays exactly; a round's failed
    tasks are retried together after one sleep, the longest any asks for.
    A task that exhausts the budget is {e quarantined}: its last failure
    stands in the outcome list and [stats.quarantined] counts it.

    [f] receives the 1-based attempt number, so a task can (and chaos
    runs do) behave differently across attempts.

    [verify], when given, runs {e in the parent} over each [Done] result
    before it is accepted; [Error msg] demotes the outcome to
    [Crashed msg] and the task is retried like any other failure.  This
    is how a runner catches damage a worker cannot see itself — e.g. a
    shard file that was corrupted on disk after the worker wrote it.

    [sleep] (default [Unix.sleepf]) performs the backoff waits;
    inject a recording stub to test the schedule without real delays.

    Like {!map_stats}, bumps the [pool.*] counters, including
    [pool.attempts] / [pool.retried] / [pool.quarantined]. *)
val map_retry :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?sleep:(float -> unit) ->
  ?verify:('a -> 'b -> (unit, string) result) ->
  (attempt:int -> 'a -> 'b) ->
  'a list ->
  'b outcome list * stats

(** Human-readable multi-line summary: task/job counts, elapsed time, the
    slowest task, and one line per crashed or timed-out task.  Wall-clock
    dependent — print to stderr, never into golden stdout. *)
val footer : stats -> string

(** Human-readable status, e.g. ["crashed: Stack_overflow"]. *)
val describe : _ outcome -> string
