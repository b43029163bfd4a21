(** The gprof-style context approximation the paper argues against
    ([GKM83], [PF88]).

    gprof measures each procedure's total (context-blind) cost and each
    call-graph edge's traversal count, then attributes the callee's cost to
    callers {e in proportion to call frequency}.  When a procedure is cheap
    from one caller and expensive from another, the apportioning is wrong —
    the "gprof problem" the CCT solves.  This module implements the
    approximation so examples and tests can quantify the error against CCT
    ground truth. *)

type t

val create : unit -> t

(** [enter t ~proc] / [exit t ~cost] bracket an activation; [cost] is the
    metric accumulated during the activation, including callees' time spent
    below it (gprof's per-procedure totals are inclusive at attribution
    level but measured flat; here the client passes the {e self} cost and
    the approximation distributes self costs only, which isolates the
    apportioning error from propagation error). *)
val enter : t -> proc:string -> unit

val exit : t -> cost:int -> unit

(** [attributed t ~caller ~callee] — the cost of [callee] that gprof's rule
    assigns to [caller]:
    [self_cost callee * calls(caller→callee) / total calls to callee]
    (as a float). *)
val attributed : t -> caller:string -> callee:string -> float
