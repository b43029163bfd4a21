(** Profile summaries the PGO passes consume.

    A summary distils one profiling run into exactly the facts the
    optimizer needs: per-block execution weights, the hottest Ball–Larus
    path per procedure, measured call counts per (caller, site, callee)
    triple, flat per-callee call totals, and a heat ranking of the global
    data segment.  Two constructors reflect the ablation the bench
    publishes:

    - {!of_paths} builds the {e context-sensitive} summary from a
      flow+hardware path profile plus the calling context tree — per-path
      D-miss attribution drives data placement, the hottest path drives
      superblock layout, and CCT edges drive inlining.
    - {!of_edges} builds the {e flat} summary from a Ball–Larus '94 edge
      profile alone — block counts but no path identity, no per-context
      call counts and no hardware metrics, which is exactly the
      information a gprof-style profiler would hand a PGO pipeline. *)

(** Which profile family produced the summary. *)
type source =
  | Context_sensitive  (** path profile + CCT ({!of_paths}) *)
  | Flat  (** edge profile only ({!of_edges}) *)

type proc_summary = {
  weights : int array;
      (** execution count per block, indexed by label (length
          [Proc.num_blocks]) *)
  hot_path : Pp_ir.Block.label list;
      (** blocks of the procedure's most frequent Ball–Larus path in
          execution order; [[]] for [Flat] summaries *)
}

(** A measured (caller, call site, callee) call count — one CCT edge
    aggregated over all contexts of the caller. *)
type site_calls = {
  caller : string;
  site : Pp_ir.Instr.site;
  callee : string;
  calls : int;
}

type t = {
  source : source;
  procs : (string * proc_summary) list;  (** sorted by procedure name *)
  sites : site_calls list;
      (** context-sensitive call counts, sorted by (caller, site, callee);
          [[]] for [Flat] summaries *)
  callee_totals : (string * int) list;
      (** calls into each procedure, summed over every caller — the flat
          gprof-style attribution; sorted by name *)
  global_heat : (string * int) list;
      (** heat per global, sorted by name: per-path D-miss attribution for
          [Context_sensitive] summaries (frequency-based when the run
          recorded no misses), reference frequency for [Flat] ones *)
}

(** [of_paths ~cct prog profile] summarises a flow+hardware profiling run.
    [profile]'s [m0] accumulators are read as D-cache misses (the Table 4
    configuration); [cct] supplies the per-(caller, site, callee) call
    counts.  Procedures absent from the profile get no entry and are left
    untouched by the optimizer. *)
val of_paths :
  cct:'a Pp_core.Cct.t -> Pp_ir.Program.t -> Pp_core.Profile.t -> t

(** [of_edges prog counts] summarises an edge-profiling run from per-block
    execution counts (see {!block_counts}).  Call totals are estimated
    statically — each call instruction contributes its block's count to
    its callee — and global heat is reference frequency, since an edge
    profile carries no hardware metrics. *)
val of_edges :
  Pp_ir.Program.t -> (string * (Pp_ir.Block.label * int) list) list -> t

(** Per-block execution counts from a reconstructed edge profile: each
    block's count is the sum of its in-edge counts. *)
val block_counts :
  Pp_core.Edge_profile.t ->
  (Pp_graph.Digraph.edge * int) list ->
  (Pp_ir.Block.label * int) list
