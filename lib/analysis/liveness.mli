(** Backward live-register analysis over both register classes.

    Registers are numbered densely: integer register [r] is [r], float
    register [f] is [niregs + f]; diagnostics render an index back to
    ["r3"] / ["f1"] form. *)

type t

val compute : Pp_ir.Cfg.t -> t

(** Side-effect-free instructions whose results are never read.  Implicit
    zero initialisers ([Iconst (r, 0)] / [Fconst (f, 0.)]) are skipped —
    the MiniC frontend emits one per uninitialised declaration. *)
val dead_stores : t -> Pp_ir.Diag.t list

(** Parameters whose incoming value is never read on any path (either
    redefined first or never touched). *)
val unused_params : t -> Pp_ir.Diag.t list
