(** Seeded end-to-end chaos runs: prove the fault-tolerance stack.

    A chaos run profiles the same program across [shards] pool workers
    while a deterministic {!Faults} plan makes roughly two thirds of them
    fail — crash, stall past the timeout, die mid-shard-write, or
    complete a write that is then corrupted on disk.  The pool retries
    under its backoff schedule, a parent-side verify pass demotes
    silently-corrupted shards to failures, and whatever lands on disk is
    read back strictly or salvaged.

    The payoff is the equality check: because faults only fire on early
    attempts, a retry budget of two or more must converge, and the merged
    profile recovered {e from disk} must be byte-identical to a fault-free
    reference.  [pp chaos] runs this and CI gates on it. *)

module Profile_io = Pp_core.Profile_io

(** How one shard's file ended up after the dust settled. *)
type shard_state =
  | Recovered  (** strict read succeeded — fully intact *)
  | Salvaged of Profile_io.salvage_report
      (** damaged, valid record prefix recovered *)
  | Lost of string  (** missing or unrecoverable (the reason) *)

type report = {
  shards : int;
  stats : Pool.stats;  (** pool outcome counts, attempts, quarantines *)
  footer : string;
      (** the pool's wall-clock summary ({!Pool.footer}): for stderr,
          never for the deterministic verdict *)
  states : shard_state list;  (** by shard index *)
  ok : int;  (** shards read back fully intact *)
  salvaged : int;
  lost : int;
  identical : bool;
      (** the merged recovered profile is byte-identical to the
          fault-free reference — the chaos invariant *)
  merged : Profile_io.saved option;
      (** merge of everything recovered from disk; [None] if nothing
          survived or the shards refused to merge *)
  reference : Profile_io.saved;  (** fault-free merge of [shards] copies *)
}

(** [degraded r] — some shard is salvaged or lost, so coverage is
    partial. *)
val degraded : report -> bool

(** Coverage line for reports, e.g. ["coverage: 3/4 shards (degraded)"]
    or ["coverage: 4/4 shards"].  Salvaged shards count as covered but
    still mark the run degraded. *)
val coverage : report -> string

(** Run the chaos experiment in [dir] (shard files are written there;
    the directory is created if needed).  The reference profile is
    computed in-process first, fault-free.  [retries] is the pool
    attempt budget (default 3 — enough for any plan with the default
    [max_attempt]); [timeout] (default 10s) turns stalls into kills when
    [jobs >= 2] (default 2); [sleep] stubs the backoff waits in tests.
    [engine] selects the execution tier for the reference and every shard
    (default {!Pp_vm.Engine.default}); the chaos invariant holds under
    either tier since both produce byte-identical profiles.
    Returns [Error] only if the program itself cannot be profiled
    fault-free. *)
val run :
  dir:string ->
  ?mode:Pp_instrument.Instrument.mode ->
  ?budget:int ->
  ?engine:Pp_vm.Engine.kind ->
  ?jobs:int ->
  ?retries:int ->
  ?timeout:float ->
  ?sleep:(float -> unit) ->
  plan:Faults.plan ->
  shards:int ->
  Pp_ir.Program.t ->
  (report, Pp_ir.Diag.t) result
