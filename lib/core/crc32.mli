(** CRC-32 (IEEE 802.3, the zlib polynomial) over strings, and the
    checked-line convention built on it.

    Fault-tolerant shard formats ({!Profile_io} version 2, the run
    checkpoints in [Pp_run.Checkpoint]) append one CRC token to every
    record line so a damaged file degrades to a detectable, salvageable
    prefix instead of silently parsing into wrong numbers.  CRC-32
    detects every single-bit flip and every burst error up to 32 bits —
    exactly the corruption classes a torn write or a flipped disk bit
    produces. *)

(** [digest s] is the CRC-32 of [s], as a non-negative [int]
    (fits in 32 bits). *)
val digest : string -> int

(** [tag line] appends the CRC token: ["content"] becomes
    ["content <8-hex-digit-crc>"].  [line] must not contain a
    newline. *)
val tag : string -> string

(** [untag line] verifies and strips the CRC token: [Some content] when
    the last space-separated token of [line] is the CRC-32 of everything
    before the separating space, [None] on a missing or mismatching
    token (the line was damaged). *)
val untag : string -> string option

(** {2 Checked-line files}

    The framing every checked-line format shares: a header line whose
    last field is the count of the record lines that follow, every line
    {!tag}ged and newline-terminated.  A format supplies only its header
    fields and its record syntax. *)

(** [frame header records]: [header] plus the record count, then the
    records (none may contain a newline). *)
val frame : string -> string list -> string

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

(** [path ^ ".tmp"], where {!write_atomic} stages its write. *)
val temp_path : string -> string

(** Write [contents] to [path] in place (not atomic). *)
val write_file : string -> string -> unit

(** Write to {!temp_path}, then rename into place: a writer killed
    mid-write leaves [path] untouched, never torn. *)
val write_atomic : string -> string -> unit
