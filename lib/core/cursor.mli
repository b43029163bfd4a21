(** A cursor over the lines of a text and the space-separated fields of
    the current line, for the line-oriented readers ({!Crc32.unframe},
    {!Profile_io}, {!Cct_io}).  It reads the text in place: a line is a
    range of it, a field a range of that, and only the fields a reader
    keeps as strings are copied out.

    Lines and fields are exactly those of [String.split_on_char '\n']
    and [String.split_on_char ' ']: [n] newlines make [n + 1] lines (the
    last one empty when the text ends in a newline), and consecutive,
    leading or trailing spaces make empty fields. *)

type t

(** A cursor whose current line is the whole of the text, before the
    first {!next_line}. *)
val create : string -> t

val text : t -> string

(** Move to the next line; [false] (and no move) past the last. *)
val next_line : t -> bool

(** 1-based number of the current line. *)
val line_no : t -> int

(** The current line runs from {!first} up to, not including, {!last}
    in {!text}. *)
val first : t -> int

val last : t -> int

(** End the current line at [pos] (between {!first} and {!last}). *)
val cut : t -> int -> unit

(** Index of the last [c] in the current line, or [-1]. *)
val rindex : t -> char -> int

(** The current line as a string. *)
val line : t -> string

val is_empty : t -> bool

(** Narrow the current line as [String.trim] would. *)
val trim : t -> unit

(** Split the current line into fields. *)
val split : t -> unit

(** Number of fields of the last {!split}. *)
val fields : t -> int

(** [field_is c i s]: field [i] is [s]. *)
val field_is : t -> int -> string -> bool

val field : t -> int -> string

(** Field [i] and everything after it to the end of the line, separators
    included: [String.concat " "] of the fields from [i] on ([""] past
    the last field). *)
val rest : t -> int -> string

(** [int_of_string] of field [i], without copying it when it is a plain
    [-]decimal.
    @raise Failure as [int_of_string] does. *)
val int : t -> int -> int

(** Field [i] with each ["%XX"] (hex, either case) decoded; [None] when a
    ['%'] is not followed by two hex digits. *)
val unescaped : t -> int -> string option

(** The same decoding of a whole string. *)
val unescape : string -> string option
