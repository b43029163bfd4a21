(** Static verification of instrumented code — the [pp check] engine.

    Given an original program, its instrumented counterpart, and the
    instrumentation manifest, the verifier proves four properties without
    running the program:

    - {b Path-sum soundness}: along every acyclic ENTRY→EXIT path of the
      Ball–Larus DAG, the path register as actually incremented by the
      emitted code evaluates to exactly the Ball–Larus path encoding.  The
      proof device is a linear forward dataflow of the difference
      [d(v) = P(v) − ValSum(v)], which correct instrumentation keeps
      per-vertex constant (0 for the simple placement, [−θ(v)] for a chord
      placement with tree potentials θ); a disagreement at a join or a
      failed commit equation pinpoints the defect.  Exact — no path
      enumeration, sound and complete over the acyclic DAG.
    - {b Commit coverage}: exactly one counter commit on every return
      block and every backedge, none in path interiors.
    - {b PIC discipline} (flow-hw): counters saved at entry before
      zeroing, accumulated and re-zeroed at backedge commits, restored
      after the final commit on every return — or the caller-saves
      variant bracketing each call site (ablation A3).
    - {b Flow conservation} (edge-freq): counters sit exactly on the
      plan's chords and the uninstrumented edges form a spanning tree, so
      Kirchhoff's equations reconstruct every edge count uniquely.

    All findings are {!Pp_ir.Diag} errors with block/instruction
    locations.  An empty list means the instrumentation is correct. *)

(** Verify every procedure pair plus the counter-table globals. *)
val verify_program :
  original:Pp_ir.Program.t ->
  manifest:Pp_instrument.Instrument.manifest ->
  Pp_ir.Program.t ->
  Pp_ir.Diag.t list

(** {2 Abstract-interpretation certification — the [pp prove] engine}

    Runs {!Absint} over every instrumented procedure and checks two
    properties on top of what {!verify_program} proves:

    - {b Bounds}: every counter-table access is 8-byte aligned and inside
      the table, every stored counter is provably within [0, 2^61] (far
      from 63-bit wraparound), and every hash/CCT commit key is within
      [0, num_paths) — for pruned numberings too, whose probe constants
      are unchanged.
    - {b Non-interference}: instrumentation-introduced state (the path
      register or its spill slot, PIC readings, counter-table cells and
      table addresses) never flows into a program-visible register,
      memory word, output, call argument, branch condition or return
      value; additionally the original program never references a
      counter-table global.

    [budget] is the VM instruction budget from which the PIC and
    table-cell caps derive (see {!Absint.config}).  An empty list means
    both properties are certified. *)
val prove_program :
  ?budget:int ->
  original:Pp_ir.Program.t ->
  manifest:Pp_instrument.Instrument.manifest ->
  Pp_ir.Program.t ->
  Pp_ir.Diag.t list
