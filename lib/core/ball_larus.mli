(** Efficient path profiling (Ball–Larus, MICRO'96), as summarised in §2 of
    the PLDI'97 paper.

    Given a procedure's CFG, the algorithm
    - turns a cyclic CFG into an acyclic one by replacing every backedge
      [v -> w] with two pseudo edges [ENTRY -> w] and [v -> EXIT];
    - labels every vertex with [NP(v)], the number of paths from [v] to
      EXIT, and every edge with [Val(e)] so that path sums are a bijection
      between ENTRY→EXIT paths and [0 .. NP(ENTRY) - 1];
    - derives instrumentation: increments of a path register along edges,
      and a combined commit/reset operation on each backedge.

    Profiled paths fall in the paper's four categories: backedge-free
    ENTRY→EXIT paths, and paths that begin after and/or end with the
    execution of a backedge. *)

module Digraph = Pp_graph.Digraph

type t

exception Unsupported of string
(** Raised when the CFG violates the algorithm's requirements (some vertex
    unreachable from ENTRY or not reaching EXIT). *)

val build : Pp_ir.Cfg.t -> t

val cfg : t -> Pp_ir.Cfg.t

(** [NP(ENTRY)]: the number of potential paths. *)
val num_paths : t -> int

(** [NP(v)] in the transformed acyclic graph; [v] is a vertex of the
    original CFG. *)
val np : t -> Digraph.vertex -> int

(** The backedges of the original CFG (identified by a depth-first search
    from ENTRY), in edge-id order. *)
val backedges : t -> Digraph.edge list

(** The backedge from [src] to [dst], if the CFG has one — how runtime
    observers (the [pp predict] measurement oracle) recognise that a
    block-to-block transition closed a path. *)
val backedge_between :
  t -> src:Digraph.vertex -> dst:Digraph.vertex -> Digraph.edge option

(** [Val] of a non-backedge CFG edge.
    @raise Invalid_argument if [e] is a backedge. *)
val edge_val : t -> Digraph.edge -> int

(** [Val] of the pseudo edges standing for backedge [v -> w], as a
    [(start, end)] pair: [start] is [Val(ENTRY -> w)] and [end] is
    [Val(v -> EXIT)].
    @raise Invalid_argument if [e] is not a backedge. *)
val backedge_pseudo_vals : t -> Digraph.edge -> int * int

(** {2 Paths} *)

type source =
  | From_entry
  | After_backedge of Digraph.edge
      (** the path begins at the backedge's target *)

type sink =
  | To_exit
  | Into_backedge of Digraph.edge
      (** the path ends by taking this backedge *)

type path = {
  source : source;
  blocks : Pp_ir.Block.label list;  (** non-empty, in execution order *)
  sink : sink;
}

(** [decode t sum] regenerates the path with the given path sum.
    @raise Invalid_argument unless [0 <= sum < num_paths t]. *)
val decode : t -> int -> path

(** [encode t path] is the path sum; inverse of {!decode}.  It is the
    sum of the path's {!entry_step}, its interior {!step}s and its
    {!exit_step}.
    @raise Invalid_argument naming the first missing step, in path
    order, if the path does not exist in the CFG. *)
val encode : t -> path -> int

(** {2 Steps}

    A path sum adds one value per step: entering the first block, each
    block-to-block transition, and leaving the last block.  A runtime
    observer can therefore accumulate a sum block by block instead of
    encoding a finished path.  The lookups read tables built once by
    {!build} and return [-1] when the step does not exist; when a CFG
    has parallel edges between two blocks, the first in out-edge order
    counts, as in {!encode}. *)

(** The entry step to [first]: the real [ENTRY -> first] edge, or the
    pseudo start edge of the source backedge, which must target
    [first]. *)
val entry_step : t -> source -> Pp_ir.Block.label -> int

(** The real CFG edge [src -> dst]. *)
val step : t -> src:Pp_ir.Block.label -> dst:Pp_ir.Block.label -> int

(** The exit step from [last]: its real edge to EXIT, or the pseudo end
    edge of the sink backedge, which must leave [last]. *)
val exit_step : t -> sink -> last:Pp_ir.Block.label -> int

val pp_path : Format.formatter -> path -> unit

(** {2 Traversals}

    A decoded path together with the original CFG edges it crosses, for
    clients that reason about edge attributes (feasibility, probe
    placement).  [real_edges] lists the non-backedge CFG edges of the
    traversal in execution order; the source/sink backedges themselves are
    named by [path.source] / [path.sink]. *)

type traversal = {
  sum : int;
  path : path;
  real_edges : Digraph.edge list;
}

val traverse : t -> int -> traversal

(** {2 Pruned numberings}

    A pruned numbering keeps the original Ball–Larus path sums (so probes
    and decode/encode are untouched) but fixes the set of sums a static
    analysis proved feasible, with a dense re-indexing [0 .. n-1] over that
    set.  The VM sizes path tables by the dense count, and profiles carry
    the feasible count so that shards only merge when they agree. *)

type pruned = private {
  numbering : t;
  sums : int array;  (** feasible path sums, strictly ascending *)
}

(** [prune t ~feasible] enumerates all [num_paths t] sums and keeps those
    accepted by [feasible].  Callers bound the enumeration themselves
    (see {!Pp_analysis.Feasibility}). *)
val prune : t -> feasible:(int -> bool) -> pruned

val num_feasible : pruned -> int

(** {2 Instrumentation placement}

    Placements are abstract: they name original CFG edges and the constants
    to add.  {!Pp_instrument} turns them into IR edits. *)

type backedge_op = {
  backedge : Digraph.edge;
  end_add : int;  (** commit [count\[r + end_add\]++] when taking the edge *)
  reset_to : int;  (** then set [r <- reset_to] *)
}

type placement = {
  init_needed : bool;  (** whether [r <- 0] at ENTRY is required *)
  increments : (Digraph.edge * int) list;
      (** non-backedge CFG edges with a non-zero constant to add *)
  backedge_ops : backedge_op list;  (** one per backedge, in edge-id order *)
}

(** One increment per labelled edge: [r += Val(e)] (zero-valued increments
    omitted). *)
val simple_placement : t -> placement

(** The event-counting optimization (Ball '94; Figure 1(d)): increments only
    on the chords of a maximum-weight spanning tree of the transformed graph
    plus a fictional EXIT→ENTRY edge.  [weights] estimates edge execution
    frequency (default: all 1); heavier edges are kept increment-free.
    Chord increments may be negative; every complete path still commits the
    same sum as {!simple_placement}. *)
val optimized_placement :
  ?weights:(Digraph.edge -> int) -> t -> placement
