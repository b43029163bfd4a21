(** A growable byte buffer that the text and binary codecs write into
    directly: decimal integers as digits, escaped names, varints and
    little-endian words, with no intermediate string per field or per
    record.  {!Crc32.end_line} finishes a checked line in place and the
    wire encoder patches its frame headers in place, so a whole shard,
    CCT or frame stream is one buffer and one final copy. *)

type t

(** An empty buffer with room for [n] bytes (it grows as needed). *)
val create : int -> t

(** Bytes written so far. *)
val length : t -> int

(** The bytes written so far, as a fresh string. *)
val contents : t -> string

(** The live buffer seen as a string, for reading (digesting) a range
    below {!length} in place.  Valid only until the next write. *)
val view : t -> string

val char : t -> char -> unit
val string : t -> string -> unit

(** [int w n] writes [string_of_int n]. *)
val int : t -> int -> unit

(** [escaped w name] writes [name] with space, newline, tab and ['%']
    as ["%XX"] (two lowercase hex digits): the name escaping of the
    space-separated text formats. *)
val escaped : t -> string -> unit

(** [hex32 w n] writes [Printf.sprintf "%08x" n] for [0 <= n < 2^32]. *)
val hex32 : t -> int -> unit

(** A newline, which also starts the next line (see {!line_start}). *)
val newline : t -> unit

(** Where the current line starts: just past the last {!newline}, or 0. *)
val line_start : t -> int

(** Zigzag LEB128: small magnitudes of either sign take few bytes. *)
val varint : t -> int -> unit

(** 32-bit little-endian word, and the same written over the four bytes
    at an earlier position (a frame header reserved before its payload
    was known). *)
val u32 : t -> int -> unit

val set_u32 : t -> int -> int -> unit
