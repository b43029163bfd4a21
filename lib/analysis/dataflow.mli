(** The worklist fixpoint solver every CFG analysis runs on.

    {!solve} propagates values over dense node ids in FIFO order.  The
    client orients and interprets the graph: its [step] says what a
    reached node sends to which successor, its [merge] says how a node
    absorbs a new value (join, widening, in-place update, …).  Constant
    propagation, abstract interpretation, the cache-state prediction and
    the bitvector analyses all run on it; {!Gen_kill} is the bitvector
    client, over the {!Pp_ir.Cfg}'s vertices (block labels plus the
    synthetic ENTRY and EXIT).

    Unreached nodes stay at bottom, represented as [None] — no bottom
    element is required of the client's values. *)

type direction = Forward | Backward

(** [solve ~size ~start ~init ~step ~merge] runs to a fixpoint over nodes
    [0 .. size-1] and returns each node's value, [None] when unreached.

    [start] holds [init] and is the first node on the queue.  A node is
    taken from the front of the queue, and [step n x] (with [x] its
    current value) lists the [(successor, value)] pushes it makes, in
    order.  A push onto an unreached node stores the value; a push onto a
    reached one calls [merge n old v], where [None] means the value did
    not change and [Some v'] replaces it.  Every stored or changed node
    joins the back of the queue unless it is already on it.  Clients that
    widen inside [merge] rely on this exact order. *)
val solve :
  size:int ->
  start:int ->
  init:'a ->
  step:(int -> 'a -> (int * 'a) list) ->
  merge:(int -> 'a -> 'a -> 'a option) ->
  'a option array

(** Dense bitvector sets over a universe [0 .. size-1]. *)
module Bitset : sig
  type t

  val create : int -> t  (** all bits clear *)

  val full : int -> t
  val copy : t -> t
  val add : t -> int -> unit
  val remove : t -> int -> unit
  val mem : t -> int -> bool
end

(** Gen/kill bitvector problems with union confluence (liveness,
    may-be-uninitialised registers): [out = gen ∪ (in \ kill)]. *)
module Gen_kill : sig
  type result

  (** [solve ~direction cfg ~gen ~kill ~init] — [gen] and [kill] give each
      block's sets; [init] is the boundary value (at ENTRY for forward,
      EXIT for backward).  A vertex's input is the union of the outputs
      of its neighbours upstream. *)
  val solve :
    direction:direction ->
    Pp_ir.Cfg.t ->
    gen:(Pp_ir.Block.label -> Bitset.t) ->
    kill:(Pp_ir.Block.label -> Bitset.t) ->
    init:Bitset.t ->
    result

  (** The set at the program point before the block, in program order
      whatever the direction.  [None] when the block is unreached. *)
  val before : result -> Pp_ir.Block.label -> Bitset.t option

  (** The set at the program point after the block. *)
  val after : result -> Pp_ir.Block.label -> Bitset.t option
end
