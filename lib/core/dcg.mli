(** The dynamic call graph (Figure 4(b)): one vertex per procedure.

    Bounded by program size but context-blind: a vertex aggregates metrics
    over every activation, which is what produces the gprof problem and the
    infeasible paths the paper illustrates (e.g. M → D → A → C). *)

type t

val create : unit -> t
val enter : t -> proc:string -> unit
val exit : t -> unit

(** [calls t ~caller ~callee] is the traversal count of that edge (0 when
    absent). *)
val calls : t -> caller:string -> callee:string -> int

val edges : t -> (string * string * int) list

(** Entry count of a procedure over all contexts. *)
val activations : t -> string -> int

(** [path_exists t procs] — does the chain exist edge-by-edge in the graph,
    starting anywhere?  True for some chains that never occurred as a
    calling context (the infeasible-path weakness). *)
val path_exists : t -> string list -> bool
