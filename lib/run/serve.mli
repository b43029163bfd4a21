(** The always-on aggregation service behind [pp serve].

    A Unix-domain socket listener ingests binary profile shards
    ({!Pp_core.Profile_wire} frames) from many concurrent client runs
    and merges them incrementally under a bounded memory budget —
    profiling stays on while the daemon folds shards in, instead of one
    batch merge after every run exits.

    {!Pp_core.Profile_io.merge} is commutative and associative on
    canonical shards, so the fault-free streamed result is
    byte-identical to an offline [pp merge] of the same shards whatever
    the arrival interleaving.  Faults degrade the way the text shards
    do: a torn or damaged stream contributes its valid frame prefix
    (salvaged), an unusable hello is rejected, and memory-pressure
    eviction is an explicit degraded-coverage verdict (exit 3).

    The compatibility baseline (program hash, mode, PIC selection) is
    the first stream merged: later streams that disagree with it are
    the ones rejected, whichever side of the mismatch arrived first. *)

module Metrics = Pp_telemetry.Metrics
module Trace = Pp_telemetry.Trace
module Profile_io = Pp_core.Profile_io
module Wire = Pp_core.Profile_wire
module Diag = Pp_ir.Diag

(** {2 The bounded-memory incremental aggregator}

    Exposed so [bench serve] can measure peak residency without a
    socket in the loop. *)

type agg = {
  max_records : int option;
  spill_dir : string option;
  mutable merged : Profile_io.saved option;
  mutable resident : int;  (** path records in [merged] *)
  mutable spilled : int;  (** spill files written *)
  mutable evicted : int;  (** path records dropped under pressure *)
  mutable peak : int;  (** peak resident records *)
  mutable conflict : Diag.t option;  (** first merge conflict, if any *)
}

(** [agg_create ?max_records ?spill_dir ()] — with a budget and a spill
    directory, over-budget tables spill to [spill-%04d.pprof] files and
    reset; with a budget alone, the coldest (lowest-frequency) records
    are evicted deterministically and the run is degraded.
    @raise Invalid_argument if [max_records <= 0]. *)
val agg_create : ?max_records:int -> ?spill_dir:string -> unit -> agg

(** Fold one shard in, then enforce the memory budget.  [Error d] on a
    merge conflict (also latched into [conflict]). *)
val agg_add : agg -> Profile_io.saved -> (unit, Diag.t) result

(** Consolidate the spill files (deleting them) with the resident table.
    The final fold materialises the whole profile once, at shutdown. *)
val agg_finish : agg -> Profile_io.saved option

(** {2 Client side} *)

(** Read (salvaging if damaged) a v2 text shard and stream it into the
    socket as wire frames.  [corrupt_after (Some k)] simulates a client
    damaged mid-stream: the first [k] frames go out intact, then garbage,
    then the connection drops — the aggregator must salvage the [k]-frame
    prefix. *)
val send_file :
  ?corrupt_after:int -> socket:string -> string -> (unit, string) result

(** {2 The server} *)

type verdict = {
  expected : int;
  accepted : int;  (** complete streams (hello + all procs + end) *)
  salvaged : int;  (** torn streams whose valid prefix was merged *)
  rejected : int;  (** streams contributing nothing usable *)
  spilled : int;
  evicted_records : int;
  peak_records : int;
  bytes : int;  (** total bytes ingested *)
  snapshots : int;  (** observability snapshots emitted *)
  merged : Profile_io.saved option;
  conflict : Diag.t option;
}

(** Degraded coverage — data was refused or lost: rejected shards,
    evicted records, a merge conflict, or fewer streams than promised.
    Salvaged prefixes alone do {e not} degrade the service.  The CLI
    maps this to exit 3. *)
val degraded : verdict -> bool

(** [serve ~socket ~expect ()] binds [socket] (unlinking any stale
    file), accepts and merges streams until [expect] of them have
    resolved or [stop ()] answers true, then finalizes any connection
    still open (it tore), consolidates spills, emits a final snapshot
    and returns the verdict.  The socket file is removed on exit.

    [snapshot] receives a JSON observability snapshot (ingest rate,
    shard verdict counts, merge-latency histogram, resident/peak table
    sizes): once at shutdown, once per [snapshot_every] resolved shards
    when positive, and whenever [snapshot_requested ()] answers true
    (polled each loop turn — the CLI sets a flag from SIGUSR1).
    Ingestion also feeds the default {!Metrics} registry
    ([serve.shards.*], [serve.bytes], [serve.merge_us],
    [serve.resident_records], [serve.peak_records]) and [trace] spans.
    @raise Invalid_argument if [expect <= 0]. *)
val serve :
  ?max_records:int ->
  ?spill_dir:string ->
  ?snapshot_every:int ->
  ?snapshot:(string -> unit) ->
  ?snapshot_requested:(unit -> bool) ->
  ?stop:(unit -> bool) ->
  ?trace:Trace.t ->
  socket:string ->
  expect:int ->
  unit ->
  verdict

(** Drive mode — the self-contained e2e: fork one child per thunk (each
    computes a shard and streams it in), aggregate concurrently in the
    parent, reap the children.  Returns the verdict and the count of
    client processes that exited nonzero.  A thunk that raises still
    resolves its stream (connect, then close without a hello), which the
    aggregator counts as rejected, so the verdict is degraded rather
    than the call hanging.
    @raise Invalid_argument on an empty client list. *)
val drive :
  ?max_records:int ->
  ?spill_dir:string ->
  ?snapshot_every:int ->
  ?snapshot:(string -> unit) ->
  ?snapshot_requested:(unit -> bool) ->
  ?stop:(unit -> bool) ->
  ?trace:Trace.t ->
  socket:string ->
  (unit -> Profile_io.saved) list ->
  unit ->
  verdict * int
