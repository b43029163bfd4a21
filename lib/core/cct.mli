(** The calling context tree (PLDI'97 §4).

    A CCT vertex (a {e call record}) stands for the equivalence class of all
    dynamic-call-tree activations that share a calling context; with the
    recursion clause of the paper's second equivalence relation, every
    procedure occurs at most once on any root-to-leaf path, so the tree's
    depth is bounded by the number of procedures and its breadth by the
    number of call sites.  Recursive calls introduce {e backedges} — edges
    to an ancestor record — which are the only non-tree edges: a CCT never
    contains cross or forward edges.

    Construction follows the paper's algorithm: the caller passes its
    callee-slot identity down (the [site] argument of {!enter}); the callee
    reuses the slot's existing record, or searches its ancestors for a
    record of the same procedure (recursion), or allocates a fresh record.
    An explicit activation stack (the run-time lCRP/saved-gCSP chain) makes
    {!exit} and non-local {!unwind_to_depth} exact even under recursion.

    The structure is polymorphic in the per-record client data (metric
    counters, path tables, …), created on demand by [make_data]. *)

type 'a t
type 'a node

(** How the call reached the callee; indirect calls make the callee slot a
    list (Figure 7) and are accounted differently by {!Cct_stats}. *)
type call_kind = Direct | Indirect

(** [create ~make_data ()] makes a CCT holding only the root record (the
    paper's ⊤ vertex, named ["<root>"], with one callee slot for the
    program's entry point).

    [merge_call_sites] collapses all of a procedure's call sites into one
    slot — the space/precision trade-off of §4.1 (default [false]:
    call sites are distinguished, as PP does). *)
val create :
  ?merge_call_sites:bool ->
  make_data:(proc:string -> nsites:int -> 'a) ->
  unit ->
  'a t

val root : 'a t -> 'a node

(** The record of the procedure currently executing. *)
val current : 'a t -> 'a node

(** [enter t ~proc ~nsites ~site ~kind] records a call to [proc] (which has
    [nsites] call sites of its own) through call site [site] of the current
    record, returning the callee's record.
    @raise Invalid_argument if [site] is out of range for the current
    record, or if an existing record for [proc] disagrees on [nsites]. *)
val enter :
  'a t -> proc:string -> nsites:int -> site:int -> kind:call_kind -> 'a node

(** Does the current record's slot for [site] already hold a record of
    [proc]?  (True from the second call on — the construction algorithm's
    fast path, which skips the ancestor search.) *)
val has_edge : 'a t -> proc:string -> site:int -> bool

(** Return from the current activation.
    @raise Invalid_argument when only the root is active. *)
val exit : 'a t -> unit

(** Non-local return (longjmp / exception, or a trap that abandoned a
    run): pop activations until [depth] remain (the root is depth 0).
    @raise Invalid_argument if deeper than the current depth. *)
val unwind_to_depth : 'a t -> int -> unit

(** {2 Node accessors} *)

val proc : _ node -> string
val data : 'a node -> 'a

(** Tree parent ([None] for the root). *)
val parent : 'a node -> 'a node option

(** Depth of the record in the tree (root = 0). *)
val node_depth : _ node -> int

val nsites : _ node -> int

(** Dense id, allocation order; root = 0. *)
val id : _ node -> int

type 'a edge = {
  site : int;
  target : 'a node;
  is_backedge : bool;  (** recursion: target is an ancestor *)
  kind : call_kind;
  mutable calls : int;  (** times this edge was traversed *)
}

(** Out-edges of a record, ordered by slot then first-use. *)
val edges : 'a node -> 'a edge list

(** Tree children only (non-backedge targets). *)
val children : 'a node -> 'a node list

(** {2 Whole-tree queries} *)

(** All records in allocation order (root first). *)
val iter : ('a node -> unit) -> 'a t -> unit

val fold : ('acc -> 'a node -> 'acc) -> 'acc -> 'a t -> 'acc

(** Number of records, root included. *)
val num_nodes : _ t -> int

(** The calling context of a record: procedure names from the root's child
    down to the record itself. *)
val context : 'a node -> string list

(** [find_context t ctx] finds the record reached by following tree edges
    through the named procedures. *)
val find_context : 'a t -> string list -> 'a node option

(** {2 Reconstruction (used by {!Cct_io})} *)

(** Are call sites merged into one slot? *)
val merged : _ t -> bool

(** Graft a fresh record under [parent] without recording a call.  Ids are
    assigned in graft order. *)
val graft_node :
  'a t -> parent:'a node -> proc:string -> nsites:int -> data:'a -> 'a node

(** Graft an edge with an explicit traversal count. *)
val graft_edge :
  'a t ->
  from_:'a node ->
  site:int ->
  target:'a node ->
  is_backedge:bool ->
  kind:call_kind ->
  calls:int ->
  unit

(** {2 Merging}

    Shards of a run — separate processes profiling the same program — each
    build their own CCT; [merge] combines two into the tree a single serial
    run over the concatenated event streams would have built. *)

(** [merge ~merge_data a b] is the structural union of the two trees: call
    records are identified by their calling context (per callee slot, edges
    are keyed by the callee procedure, exactly as {!enter} looks them up —
    so merged-call-site trees unify on the single collapsed slot), edge
    traversal counts are summed, and a recursion backedge in either input
    becomes a backedge to the corresponding ancestor of the result.  Client
    data is combined by [merge_data], called with the data of whichever
    input trees have the record ([None] when only one shard reached that
    context); it must copy mutable payloads, since the result must not alias
    the inputs.  Edge order within a slot is [a]'s first-use order followed
    by records only [b] has, so merging shards that partition one serial
    event stream reproduces the serial first-use order.
    @raise Invalid_argument if the trees disagree on [merge_call_sites], on
    a procedure's site count, or on an edge's backedge-ness (the shards
    came from different programs). *)
val merge :
  merge_data:('a option -> 'a option -> 'a) -> 'a t -> 'a t -> 'a t

(** Structural invariants, checked by the test suite:
    no procedure repeats along any root-to-leaf tree path; every backedge
    targets an ancestor; every non-root record is its parent's child.
    @raise Invalid_argument on violation. *)
val check_invariants : 'a t -> unit
[@@test_only "the checker tests run over every CCT that construction and merge build"]
