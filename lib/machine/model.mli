(** Pure, stateless mirrors of the machine's cost semantics, for static
    analyses ({!Pp_analysis}'s abstract cache interpretation and the
    per-path predictor behind [pp predict]).

    Everything here is a function of a validated {!Config.t} — no mutable
    cache, predictor or buffer state — and each bound is certified against
    the mutable implementations:

    - {!line_of}/{!set_of_line} replicate {!Cache}'s address mapping
      exactly (power-of-two geometry, tag = line index);
    - {!store_stall_bound} bounds {!Store_buffer.push}: a stall waits at
      most until the oldest of [entries] queued drains completes, each
      drain at most [store_drain_miss_cycles], all anchored no later than
      the current clock;
    - {!fp_stall_bound} bounds {!Fp_unit.use}/[issue]: a source's ready
      stamp was set to [issue_time + latency] with [issue_time <= now]
      (accounted stalls advance the clock), so the residual wait is at
      most the largest latency. *)

(** Number of sets of a geometry ([size / (line * associativity)]). *)
val num_sets : Config.cache_geometry -> int

(** Line index of an address ([addr / line_bytes] — the tag the cache
    compares). *)
val line_of : Config.cache_geometry -> int -> int

(** Set a line maps to ([line mod num_sets]). *)
val set_of_line : Config.cache_geometry -> int -> int

(** Whether two lines compete for the same set. *)
val same_set : Config.cache_geometry -> int -> int -> bool

(** Distinct lines touched by the byte range [addr, addr + bytes), in
    ascending order.  [bytes <= 0] touches nothing. *)
val lines_of_range : Config.cache_geometry -> addr:int -> bytes:int -> int list

(** {2 Certified per-event stall bounds} *)

(** Upper bound on the stall of one {!Machine.store}:
    [store_buffer_entries * store_drain_miss_cycles]. *)
val store_stall_bound : Config.t -> int

(** Upper bound on the stall of one FP use or issue: the largest FP
    latency. *)
val fp_stall_bound : Config.t -> int

(** Stall of one mispredicted branch; a predicted branch stalls zero. *)
val mispredict_bound : Config.t -> int
