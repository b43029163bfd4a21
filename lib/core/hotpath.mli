(** Hot-path and hot-procedure classification — the analyses behind Tables 4
    and 5 of the paper.

    Terminology (§6.4): with a metric of L1 data-cache misses, a path is
    {e hot} when it incurs at least [threshold] (default 1%) of all misses;
    hot paths split into {e dense} (miss ratio above the program average —
    misses per instruction) and {e sparse} (heavy execution, ordinary
    locality); everything else is {e cold}.  The same definitions, summed
    per procedure, classify procedures.

    The analysis assumes a profile collected with [pic0] = the miss metric
    and [pic1] = instructions, i.e. [m0] = misses and [m1] = instructions
    for every path. *)

type class_stats = {
  num : int;
  insts : int;
  misses : int;
}

type path_classes = {
  all : class_stats;
  dense : class_stats;
  sparse : class_stats;
  cold : class_stats;
}

val classify_paths : ?threshold:float -> Profile.t -> path_classes

type proc_class_stats = {
  procs : int;
  avg_paths_per_proc : float;  (** executed paths *)
  miss_fraction : float;
}

type proc_classes = {
  dense_procs : proc_class_stats;
  sparse_procs : proc_class_stats;
  cold_procs : proc_class_stats;
}

(** At the default 1% threshold. *)
val classify_procs : Profile.t -> proc_classes

(** Every (procedure, path sum) whose misses reach the threshold, sorted by
    decreasing misses. *)
val hot_paths :
  ?threshold:float -> Profile.t -> (string * int * Profile.path_metrics) list

(** §6.4.3: the average number of distinct executed paths that cross a basic
    block, over the blocks lying on hot paths — the reason statement-level
    miss counts cannot isolate path behaviour.  Hot at the default 1%
    threshold. *)
val avg_paths_through_hot_blocks : Profile.t -> float

val pp_path_classes : Format.formatter -> path_classes -> unit
val pp_proc_classes : Format.formatter -> proc_classes -> unit
