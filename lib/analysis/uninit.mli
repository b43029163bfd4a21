(** May-be-uninitialised register detection (forward, union confluence).

    At entry only the parameter registers are initialised; a register
    leaves the may-uninitialised set when every path to a point defines
    it.  {!warnings} reports each use of a possibly-uninitialised
    register.  (The VM zero-fills registers, so these are lint findings,
    not undefined behaviour.) *)

type t

val compute : Pp_ir.Cfg.t -> t
val warnings : t -> Pp_ir.Diag.t list
