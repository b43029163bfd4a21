(** Structural checking of whole programs, run before loading. *)

exception Invalid of Diag.t
(** The diagnostic's location names the offending procedure and, where the
    violation is attached to code, the block and instruction index. *)

(** [run prog] checks, raising {!Invalid} with a located diagnostic on the
    first violation:
    - every direct call and [Iconst_sym] names an existing procedure or
      global;
    - call argument counts and result destinations match the callee
      signature;
    - [Ret] value kinds match the enclosing procedure's return kind;
    - every block is reachable from the entry and reaches some return
      (the profiler's ENTRY/EXIT requirements).

    Register indices need no check here: {!Proc.make} keeps them in
    range (see the invariant on {!Proc.t}). *)
val run : Program.t -> unit
