(** Whole-program lint built on the dataflow framework.

    Four checks, all reported as warnings:
    - unreachable blocks (raw [.ppir] input; the MiniC frontend drops
      unreachable statements during lowering);
    - uses of possibly-uninitialised registers ({!Uninit});
    - dead stores — side-effect-free instructions whose results are never
      read ({!Liveness.dead_stores});
    - unused functions — procedures unreachable in the call graph from
      [main], treating an [Iconst_sym] of a procedure name as an
      address-taken (hence possible indirect) call. *)

val run : Pp_ir.Program.t -> Pp_ir.Diag.t list
