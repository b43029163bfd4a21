(** Whole programs: procedures plus global data. *)

(** Optional initial contents of a global; uninitialised globals are
    zero-filled. *)
type init = Init_ints of int array | Init_floats of float array

type global = {
  gname : string;
  size_words : int;  (** one word = 8 bytes *)
  init : init option;
}

type t = private {
  procs : Proc.t array;
  globals : global array;
  main : string;
}

(** @raise Invalid_argument on duplicate procedure or global names, a missing
    [main], a [main] with parameters, or an [init] longer than its global. *)
val make : procs:Proc.t list -> globals:global list -> main:string -> t

val find_proc : t -> string -> Proc.t option

(** @raise Not_found *)
val proc_exn : t -> string -> Proc.t

val proc_index : t -> string -> int option
val find_global : t -> string -> global option

(** [map_procs f t] rebuilds the program with every procedure transformed —
    the instrumenter's entry point. *)
val map_procs : (Proc.t -> Proc.t) -> t -> t

(** Total static instruction slots over all procedures. *)
val size_slots : t -> int
