(** Sampled instrumentation: a controller that gates the path-commit
    probes (Metz & Lencevicius, "Efficient Instrumentation for
    Performance Profiling").

    Installed on a VM with {!Interp.set_sampling}, the controller decides
    — per burst of a procedure's consecutive commits — whether each
    path-commit probe records or is skipped.  A skipped probe never
    reaches {!Runtime}, so the machine model charges none of its fetches,
    loads or stores: lowering the duty cycle buys back real (simulated)
    overhead, which is what the accuracy-vs-overhead frontier in
    [bench serve] measures.

    Only the table-commit probes gate ([Path_commit_hash],
    [Path_commit_hash_hw], [Path_commit_cct]).  The CCT protocol ops
    (enter/exit/call, metric save/restore) never gate — skipping them
    would unbalance the shadow call stack — and a gated-off hardware
    commit still re-anchors the PICs, so the counter state every later
    commit observes is identical to an exhaustive run's.

    {2 Determinism}

    The decision for the [n]-th commit of procedure [p] is a pure
    function of [(seed, p, n / burst, duty)].  Tick streams are kept
    per procedure, so the schedule is independent of engine choice,
    shard interleaving and [--jobs]: the same seed and duty yield
    byte-identical sampled profiles anywhere, and duty [1.0] is
    byte-identical to an exhaustive run of the same instrumentation.

    {2 Coverage}

    The controller counts every decision: {!coverage} returns the exact
    [(sampled, total)] commit window per procedure — the scaling
    certificate a sampled shard carries (see
    {!Pp_core.Profile_io.saved}), from which consumers scale sampled
    frequencies by [total/sampled]. *)

(** {2 Deterministic mixing}

    The hash every seeded choice is built on: burst decisions here, and
    [Pp_run]'s chaos fault plans and retry-backoff jitter.
    SplitMix64-style avalanche of a list of ints. *)

val mix : int list -> int

(** [unit_float h] maps a hash to [0.0 <= x < 1.0]. *)
val unit_float : int -> float

type t

(** The burst length {!create} defaults to (64). *)
val default_burst : int

(** [create ~seed ()] — [duty] (default [1.0]) is the duty cycle in
    [\[0, 1\]], fixed for the controller's life; [burst] (default 64)
    is the number of consecutive commits sharing one decision.
    @raise Invalid_argument on a duty outside [\[0, 1\]] or [burst <= 0]. *)
val create : ?burst:int -> ?duty:float -> seed:int -> unit -> t

val seed : t -> int
val burst : t -> int

(** Consume procedure [proc]'s next commit tick: [true] = record the
    commit, [false] = skip it.  Called by the VM once per gateable
    probe on both engines. *)
val decide : t -> proc:string -> bool

(** Exact coverage, per procedure, sorted: [(proc, (sampled, total))]
    — [sampled] commits recorded out of [total] executed. *)
val coverage : t -> (string * (int * int)) list

(** The frequency scale factor a [(sampled, total)] window certifies:
    [total/sampled], or [1.0] for empty or exhaustive windows. *)
val scale : sampled:int -> total:int -> float
