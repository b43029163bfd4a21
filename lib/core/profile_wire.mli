(** The binary shard wire format of the streaming aggregator ([pp serve]).

    A saved profile ({!Profile_io.saved}) streams as a sequence of
    self-delimiting binary frames — not as the line-text v2 file — so an
    aggregator can merge each procedure the moment it arrives and a torn
    or damaged connection degrades to a cleanly decodable frame prefix,
    the same salvage discipline the v2 text format has per line.

    {2 Frames}

    {v
    +------+-------------+-------------+------------------+
    | kind | len: u32 LE | crc: u32 LE | payload (len B)  |
    +------+-------------+-------------+------------------+
    v}

    [kind] is ['H'] (hello: stream header), ['P'] (one procedure's
    records: paths plus optional feasible / coverage annotations) or
    ['E'] (end: whole-shard totals, used to verify the stream arrived in
    full).  [crc] is the {!Crc32} digest of the payload — the same
    polynomial the v2 text shards carry per line.  Payload integers are
    zigzag LEB128 varints; strings are length-prefixed.

    A well-formed stream is [Hello, Proc*, End].  Streams decoded from a
    prefix (no [End], or a {!reader} reporting [`Corrupt]) are salvaged
    partials: every complete frame before the damage is trustworthy. *)

module Event = Pp_machine.Event

type header = {
  program_hash : string;
  mode : string;
  pic0 : Event.t;
  pic1 : Event.t;
}

type proc_frame = {
  name : string;
  npaths : int;  (** potential paths; 0 for pure annotation carriers *)
  feasible : int option;
  coverage : (int * int) option;  (** (sampled, total) commit window *)
  paths : (int * Profile.path_metrics) list;
}

type summary = {
  nprocs : int;  (** [Proc] frames the stream carried *)
  freq : int;  (** whole-shard totals, as {!Profile_io.totals} *)
  m0 : int;
  m1 : int;
}

type frame = Hello of header | Proc of proc_frame | End of summary

(** {2 Encoding} *)

(** One framed binary string. *)
val encode_frame : frame -> string

(** The canonical frame sequence of a shard: hello, one proc frame per
    procedure (annotation-only procedures included), end. *)
val frames_of_saved : Profile_io.saved -> frame list

(** {!frames_of_saved} concatenated — the full byte stream a client
    writes. *)
val encode_saved : Profile_io.saved -> string

(** Reassemble a decoded stream; inverse of {!frames_of_saved} on
    canonical shards ([saved_of_frames h ps] with a prefix of the proc
    frames yields the salvaged partial). *)
val saved_of_frames : header -> proc_frame list -> Profile_io.saved

(** {2 Incremental decoding}

    Feed bytes as they arrive off a socket; pull complete frames out.
    Corruption is sticky: once a frame fails its checksum or parse, the
    reader refuses everything after it (the stream's framing can no
    longer be trusted), and the frames already returned form the valid
    prefix. *)

type reader

val reader : unit -> reader

(** Append raw bytes. *)
val feed : reader -> string -> unit

(** [`Frame f] — one complete frame consumed; call again.  [`Need_more]
    — the buffer holds no complete frame.  [`Corrupt msg] — damage
    detected (bad kind byte, oversized length, checksum mismatch,
    malformed payload); sticky. *)
val next : reader -> [ `Frame of frame | `Need_more | `Corrupt of string ]
