(** Flow-sensitive profiles: per-procedure path tables with a frequency and
    two hardware-metric accumulators per executed path (the PICs' events,
    recorded in [pic0]/[pic1]). *)

module Event = Pp_machine.Event

type path_metrics = { freq : int; m0 : int; m1 : int }

type proc_profile = {
  proc : string;
  numbering : Ball_larus.t;
  paths : (int * path_metrics) list;  (** executed paths, by path sum *)
}

type t = {
  pic0 : Event.t;
  pic1 : Event.t;
  procs : proc_profile list;
}

val total_m0 : t -> int
val total_m1 : t -> int

val find_proc : t -> string -> proc_profile option

(** Decode a path sum of a profiled procedure. *)
val decode : proc_profile -> int -> Ball_larus.path

(** Executed paths of one procedure sorted by decreasing [m0]. *)
val ranked_paths : proc_profile -> (int * path_metrics) list
