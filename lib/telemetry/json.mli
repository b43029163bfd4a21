(** The one JSON writer.  Every [--json] report, Chrome trace, serve
    snapshot and committed BENCH file is a {!t} rendered here, so quoting,
    escaping and separators have one owner. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float  (** [Fixed (d, x)] prints [x] as [%.*f] *)
  | Sig of int * float  (** [Sig (d, x)] prints [x] as [%.*g] *)
  | String of string
  | List of t list
  | Seq of t Seq.t  (** A [List] whose elements are built as written. *)
  | Object of (string * t) list  (** Members print in list order. *)

(** Compact, without whitespace: [{"a":[1,null]}].  Strings escape quote,
    backslash and newline with a backslash and other control bytes as
    [\u00XX]. *)
val to_string : t -> string

(** The committed BENCH files' layout: a list with one element per line,
    indented two spaces, and a final newline; inside an element, members
    and elements are separated by [", "] and keys by [": "]. *)
val to_lines : t list -> string
