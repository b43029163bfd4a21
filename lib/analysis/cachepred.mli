(** Ferdinand/Wilhelm-style abstract interpretation of the machine's LRU
    caches (must / may / persistence), over one cache at a time.

    The domain is deliberately ignorant of the IR: a client (see
    {!Predict}) compiles each block into an ordered list of abstract
    {!access}es — candidate cache lines resolved through {!Absint} where
    addresses are static, symbolic spaces where they are not — and this
    module folds the exact {!Pp_machine.Config} geometry over them.

    Soundness contract, certified by the [pp predict] runtime oracle:

    - {b must} maps a line to an upper bound on its LRU age; a reference
      whose every candidate line is in must with age < associativity is a
      guaranteed hit.
    - {b may} over-approximates the lines possibly resident; a reference
      none of whose candidate lines may be resident is a guaranteed miss.
      May grows monotonically (a line once touched stays possibly
      resident), so guaranteed misses are first-touches.
    - Addresses live in disjoint spaces fixed by {!Pp_ir.Layout}: globals
      and heap below the profiling segment, the profiling segment below
      the stack, code fetch-only.  A symbolic reference ([Top_prof],
      [Top_frame]) can therefore never hit a concrete data line — but its
      possible fill can evict anything, which the must transfer honours.
    - Frame slots are tracked by exact byte offset from the (unknown)
      frame base: equal offsets alias exactly; offsets a full line apart
      never share a line; everything else is approximated away.
    - Stores are write-through and non-allocating: a store never fills
      and never evicts, so it perturbs neither analysis — only its own
      hit/miss classification is consulted.

    The persistence pass upgrades a loop-body reference that cannot be
    evicted from within the loop to "at most one miss per loop entry",
    which is what proves a hot inner path all-hit after the first
    iteration. *)

module Config = Pp_machine.Config

(** Candidate target of one cache reference. *)
type target =
  | Line of int  (** exactly this line (index = addr / line_bytes) *)
  | Lines of int list  (** one of these lines; non-empty, ascending *)
  | Frame of int  (** frame slot at this byte offset from the frame base *)
  | Top_prof  (** somewhere in the profiling segment *)
  | Top_frame  (** somewhere in the stack *)
  | Top  (** anywhere *)

type access =
  | Read of target
  | Read_maybe of target
      (** a read that may or may not execute (variable-length profiling
          stubs): classified for the upper bound only, and its possible
          fill still ages the must state *)
  | Write of target
  | Havoc
      (** a call boundary: the callee may have filled or evicted
          anything ({!step} empties must and makes may top) *)

type classification = Hit | Miss | Unknown

type state

(** [entry ~cold] — procedure-entry state: [cold] means provably empty
    caches (the program entry of a never-called [main] on a fresh
    machine); otherwise nothing is known ([may] is top). *)
val entry : cold:bool -> state

(** Transfer of one access.  [step] refines ages and residency exactly as
    the LRU set the access maps to would. *)
val step : Config.cache_geometry -> state -> access -> state

(** [classify_step geom s a] classifies [a] in [s] — [Hit] when must
    guarantees it, [Miss] when may rules every candidate line out — and
    returns the {!step} after it.  A [Read (Line l)] looks [l]'s set up
    once for both: the hit test, the ageing of the set and the insertion
    of [l] share that lookup. *)
val classify_step :
  Config.cache_geometry -> state -> access -> classification * state

(** The read of a target by its separate steps — hit test, ageing of the
    affected sets, insertion, may update — each looking its set up again.
    [step] takes this path for every target but one exact line. *)
val read : Config.cache_geometry -> state -> target -> state
[@@test_only "the unfused read that the one-lookup [Read (Line l)] step is checked against"]

(** {2 Per-procedure fixpoint}

    A tiny CFG-shaped solver: blocks are integers, [events i] lists block
    [i]'s accesses in program order.  Kleene iteration without widening —
    must shrinks and may grows inside finite universes (the lines named by
    the program's accesses), so the chain is finite.

    A merge keeps the old in-state when it {!absorbs} the incoming one and
    builds the {!join} only otherwise.  The worklist re-runs a block
    whenever its in-state changes, so each block's [block_out] is the
    out-state of its last run, kept rather than recomputed; only
    unreached blocks are transferred after the fixpoint.  States are
    {!Intmap} Patricia trees keyed by cache set, line and frame offset. *)

type solution = {
  block_in : state array;
  block_out : state array;  (** after the block's last access *)
}

val solve :
  Config.cache_geometry ->
  nblocks:int ->
  entry:int ->
  succs:(int -> int list) ->
  events:(int -> access array) ->
  cold:bool ->
  solution

(** {2 The solver's merge}

    A merge keeps the old in-state when it absorbs the incoming one, and
    otherwise replaces it by their join.  These and a structural view of a
    state let tests check the containment test against the join. *)

(** The least upper bound: must keeps the lines of both at the larger
    age, may is the union. *)
val join : state -> state -> state
[@@test_only "the solver's join, which the containment test must agree with"]

(** [absorbs old out]: [join old out] equals [old].  Decided by
    containment — every must entry of [old] is in [out] at an age no
    greater, and [out]'s may state lies inside [old]'s — without building
    the join. *)
val absorbs : state -> state -> bool
[@@test_only "the solver's unchanged test, checked against join and a structural equality"]

(** A state's contents in ascending key order; equal views mean equal
    states. *)
type view = {
  must_lines : (int * (int * int) list) list;
      (** cache set -> (line, age upper bound) *)
  must_frame : (int * int) list;  (** frame byte offset -> age upper bound *)
  may_lines : int list;
  may_frame : int list;
  may_prof : bool;
  may_frtop : bool;
  may_top : bool;
}

val view : state -> view
[@@test_only "a structural view the tests compare states by"]

(** {2 Persistence}

    [persistent geom ~body_events target] — no access in the loop body
    can evict [target]'s line: every body reference either cannot map to
    the target's set or is the target itself, and nothing symbolic (call
    havoc is represented by the client as a [Read Top]) appears.  Only
    exact [Line] targets qualify. *)
val persistent :
  Config.cache_geometry -> body_events:access array list -> target -> bool
