(** CCT persistence and rendering.

    PP's instrumentation wrote the CCT heap to a file at program exit "from
    which the CCT can be reconstructed" (§4.2); this module provides that
    round trip in a line-oriented text format, plus Graphviz rendering for
    inspection.

    The format, one record per line after a header:
    {v
    cct 1 <nodes> <merged:0|1>
    node <id> <parent-id|-1> <depth> <nsites> <proc-name-escaped> <data...>
    edge <from-id> <site> <to-id> <backedge:0|1> <indirect:0|1> <calls>
    v}
    Client data is encoded by the caller-supplied codec. *)

type 'a codec = {
  encode : 'a -> string;  (** must not contain newlines *)
  decode : string -> 'a;
}

(** A codec for the common [int array] metric payload
    (space-separated decimals). *)
val metrics_codec : int array codec

(** Whitespace/percent escaping for names embedded in space-separated
    records (shared with {!Profile_io}'s format). *)
val escape : string -> string

(** Inverse of {!escape}; [None] when a ['%'] is not followed by two hex
    digits. *)
val unescape : string -> string option

(** Unit payload (encodes to the empty string). *)
val unit_codec : unit codec

val write : codec:'a codec -> Buffer.t -> 'a Cct.t -> unit
val to_string : codec:'a codec -> 'a Cct.t -> string

(** {!to_string} through {!Crc32.write_atomic}. *)
val to_file : codec:'a codec -> string -> 'a Cct.t -> unit

exception Parse_error of int * string
(** Line number and message. *)

(** Rebuild a CCT (its activation stack is just the root).  Edge call
    counts, node ids, depths and client data are restored exactly;
    {!Cct.check_invariants} holds on the result.  The number of node
    records must match the header; edge records carry no count, so a
    text cut among them still parses.
    @raise Parse_error on a malformed record (at its line) or a node
    count that differs from the header's (at the header's line) *)
val of_string : codec:'a codec -> string -> 'a Cct.t

val of_file : codec:'a codec -> string -> 'a Cct.t

(** Sum the metric CCTs saved in [paths] (by [pp profile --cct-out]),
    reading them in order: metric arrays add pointwise, a record only
    one tree has keeps its own.  [Error (`Read msg)] on the first
    unreadable or malformed file ([msg] is located as ["path:line: ..."])
    or an empty list; [Error (`Conflict d)] when two trees cannot be
    summed — different metric arities, or one merges call sites and the
    other does not ([d] sits at ["<header>"]). *)
val merge_files :
  string list ->
  (int array Cct.t, [ `Read of string | `Conflict of Pp_ir.Diag.t ]) result

(** Graphviz rendering; [label] decorates each record (default: the
    procedure name). *)
val to_dot : ?label:('a Cct.node -> string) -> 'a Cct.t -> string
