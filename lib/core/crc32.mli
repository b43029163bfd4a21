(** CRC-32 (IEEE 802.3, the zlib polynomial) over strings, and the
    checked-line convention built on it.

    Fault-tolerant shard formats ({!Profile_io} version 2, the run
    checkpoints in [Pp_run.Checkpoint]) append one CRC token to every
    record line so a damaged file degrades to a detectable, salvageable
    prefix instead of silently parsing into wrong numbers.  CRC-32
    detects every single-bit flip and every burst error up to 32 bits —
    exactly the corruption classes a torn write or a flipped disk bit
    produces. *)

(** [digest s] is the CRC-32 of [s], as a non-negative [int] (fits in
    32 bits); [digest ~pos ~len s] that of [String.sub s pos len],
    computed in place ([len] defaults to the rest of [s]).
    @raise Invalid_argument if the range is not within [s]. *)
val digest : ?pos:int -> ?len:int -> string -> int

(** {2 Checked-line files}

    The framing every checked-line format shares: a header line whose
    last field is the count of the record lines that follow, every line
    newline-terminated and tagged with a CRC token (["content"] becomes
    ["content <8-hex-digit-crc>"], the CRC-32 of everything before the
    separating space).  A format supplies only its header fields and its
    record syntax. *)

(** [frame header records]: [header] plus the record count, then the
    records (none may contain a newline). *)
val frame : string -> string list -> string

(** [end_line w] tags the line written to [w] since its last newline
    with its CRC token and ends it: the in-place form of a {!frame}
    record, for writers that build their lines in the buffer. *)
val end_line : Writer.t -> unit

(** [line w l] writes [l] to [w] as one checked line.
    @raise Invalid_argument if [l] contains a newline. *)
val line : Writer.t -> string -> unit

type damage = {
  total : int;  (** records the (intact) header promised *)
  recovered : int;  (** records in the valid prefix *)
  first_bad_line : int;
      (** 1-based line where damage was detected (for a clean cut at a
          record boundary, the line the first missing record would have
          occupied) *)
}

(** [unframe ~record text] scans [text] front to back, passing each
    intact record line (checksum stripped) to [record lineno], which
    answers whether it parsed, and stops at the first damaged, rejected,
    missing or surplus record.  [Ok (header, None)]: every promised
    record was accepted; [Ok (header, Some d)]: only the prefix [d]
    describes was (a salvage reader keeps it, a strict one refuses).
    [header] excludes the checksum and the count.  [Error (line, msg)]:
    the header is damaged or carries no count. *)
val unframe :
  record:(int -> string -> bool) ->
  string ->
  (string * damage option, int * string) result

(** {!unframe} with each intact record given as the cursor's current line
    (checksum already cut off), to be read in place. *)
val unframe_lines :
  record:(int -> Cursor.t -> bool) ->
  string ->
  (string * damage option, int * string) result

(** {2 The durable writer}

    Every file the profiler persists — profile shards, saved CCTs,
    checkpoints, serve's spill files — is written by {!write_atomic}, so
    the crash points a test or a chaos run can inject are this module's
    too. *)

(** [path ^ ".tmp"], where {!write_atomic} stages its write. *)
val temp_path : string -> string

(** Write [contents] to [path] in place (not atomic): for plain report
    outputs that nothing reads back. *)
val write_file : string -> string -> unit

(** A deterministic fault injected into {!write_atomic}.  Offsets wrap
    like positions in the written file, so a seeded plan need not know
    its size.

    - [Crash_after k]: the writer dies after [k] bytes (mod length + 1)
      of the temp write: [0] is before the first byte, the length is
      before the rename.  The destination is untouched (a previous
      version survives); a [.tmp] carcass is left.  Raises
      {!Killed_mid_write}.
    - [Torn_write]: the first half of the contents lands at the
      destination itself — what a non-atomic writer leaves when killed,
      injected to exercise salvage readers.  Raises {!Killed_mid_write}.
    - [Flip_bit k]: the write completes with bit [k] (mod 8 × length)
      flipped — post-write disk corruption.
    - [Truncate_at k]: the write completes with only the first [k] (mod
      length) bytes. *)
type fault =
  | Crash_after of int
  | Torn_write
  | Flip_bit of int
  | Truncate_at of int

exception Killed_mid_write
(** Raised by [Crash_after] and [Torn_write] where the simulated SIGKILL
    lands, so a pool worker dies exactly as a real one would. *)

(** Write to {!temp_path}, then rename into place: a writer killed
    mid-write leaves [path] untouched, never torn.  With [fault], inject
    that failure instead. *)
val write_atomic : ?fault:fault -> string -> string -> unit
