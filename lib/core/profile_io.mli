(** Persistent, mergeable, corruption-hardened path profiles.

    A sharded run matrix — the same program profiled in many processes, as
    D'Elia & Demetrescu's multi-iteration Ball–Larus profiler and
    counter-based PGO pipelines do — writes one profile file per shard and
    sums them afterwards.  This module is that on-disk layer: a saved
    profile carries the program's digest and the instrumentation mode, and
    {!merge} refuses to sum shards that disagree on either, reporting the
    mismatch as a structured {!Pp_ir.Diag.t} rather than silently producing
    a chimera.

    {2 The format}

    Line-oriented like {!Cct_io}'s.  Version 2 (what {!to_string} writes)
    appends a {!Crc32} token to every line and carries the body record
    count in the header, so any truncation or bit flip is detected and the
    undamaged record prefix stays recoverable:
    {v
    profile 2 <program-hash> <mode> <pic0> <pic1> <nrecords> <crc>
    feasible <name-escaped> <num-feasible-paths> <crc>
    coverage <name-escaped> <sampled-commits> <total-commits> <crc>
    proc <name-escaped> <num-potential-paths> <crc>
    path <sum> <freq> <m0> <m1> <crc>
    v}
    Version 1 (the pre-checksum format, still read) is the same without
    the CRC tokens or the header count.

    [feasible] records (optional, one per statically pruned procedure)
    carry the feasible-path count the static analyzer certified when the
    run was instrumented; {!merge} refuses shards whose annotations
    disagree, so a pruned run never silently sums with an unpruned one's
    claims.

    {2 Fault tolerance}

    {!to_file} writes to a [.tmp] sibling and atomically renames it into
    place, so a writer killed mid-shard leaves the destination untouched
    (a previous complete version survives; a fresh shard is simply
    absent) — never a torn file.  {!salvage_file} reads a shard that was
    damaged {e after} a successful write (disk corruption, a non-atomic
    copy): it recovers the valid record prefix and reports exactly how
    many records were dropped.  Chaos runs inject {!write_fault}s here to
    prove both properties end to end ([pp chaos]). *)

module Event = Pp_machine.Event

type saved = {
  program_hash : string;
  mode : string;  (** {!Pp_instrument.Instrument.mode_name} of the run *)
  pic0 : Event.t;
  pic1 : Event.t;
  procs : (string * int * (int * Profile.path_metrics) list) list;
      (** procedure, potential-path count, executed paths by path sum *)
  feasible : (string * int) list;
      (** statically feasible path count per pruned procedure *)
  coverage : (string * (int * int)) list;
      (** per-procedure [(sampled, total)] path-commit windows — the
          scaling certificate of a sampled run
          ([Pp_vm.Sampling.coverage]).  Consumers scale the procedure's
          sampled frequencies by [total/sampled].  {!canonical} drops
          exhaustive windows ([sampled = total]), so unsampled shards
          carry no coverage records and a duty-1.0 sampled shard is
          byte-identical to an exhaustive one; {!merge} sums windows,
          defaulting a shard's missing window to its recorded commit
          count (exhaustive), so sampled and unsampled shards compose. *)
}

(** Digest of a program's structure; shards of the same binary agree. *)
val program_hash : Pp_ir.Program.t -> string

(** Strip the numbering from an in-memory profile (path sums alone suffice
    to merge; decoding needs the program anyway).  [feasible] attaches the
    static analyzer's per-procedure feasible-path counts; [coverage]
    attaches a sampled run's per-procedure commit windows. *)
val of_profile :
  ?feasible:(string * int) list ->
  ?coverage:(string * (int * int)) list ->
  program_hash:string ->
  mode:string ->
  Profile.t ->
  saved

(** Canonical form: procedures sorted by name, paths by path sum.  All
    functions below return canonical values; [merge] is commutative and
    associative on them. *)
val canonical : saved -> saved

(** Total frequency and metric accumulators over all paths. *)
val totals : saved -> int * int * int

(** Sum two shards.  [Error d] (with [d] located at the offending procedure
    or at ["<header>"]) if the program hashes, modes, PIC selections, a
    procedure's potential-path counts or its feasible-path annotations
    disagree. *)
val merge : saved -> saved -> (saved, Pp_ir.Diag.t) result

(** Fold {!merge} over a non-empty list. *)
val merge_all : saved list -> (saved, Pp_ir.Diag.t) result

(** Serialize in the checksummed version-2 format (canonicalizes first,
    so equal profiles serialize byte-identically). *)
val to_string : saved -> string

exception Parse_error of int * string
(** Line number and message.  On a damaged version-2 shard the message
    says how many records are intact; use {!salvage_string} to recover
    them. *)

(** Strict reader: accepts version 1 and version 2; verifies every CRC
    and the record count on version 2.
    @raise Parse_error on malformed input or any detected damage. *)
val of_string : string -> saved

(** {2 Salvage: recovering damaged shards} *)

(** What a damaged shard's salvage kept: see {!Crc32.damage}. *)
type salvage_report = Crc32.damage = {
  total : int;
  recovered : int;
  first_bad_line : int;
}

(** Best-effort reader for a damaged version-2 shard: CRC-checks records
    front to back and stops at the first damaged or structurally invalid
    line.  [Ok (s, None)] — the shard is intact.  [Ok (s, Some report)]
    — [s] is the valid record prefix and [report] says exactly what was
    dropped.  [Error d] — the header itself is unusable (or the input is
    an unchecksummed version-1 file that does not parse), so nothing can
    be recovered. *)
val salvage_string : string -> (saved * salvage_report option, Pp_ir.Diag.t) result

(** {!salvage_string} on a file; unreadable files are [Error]. *)
val salvage_file : string -> (saved * salvage_report option, Pp_ir.Diag.t) result

(** Render a report as a structured diagnostic at the pseudo-procedure
    ["<shard>"] (the convention {!merge} uses for ["<header>"]). *)
val salvage_diag : file:string -> salvage_report -> Pp_ir.Diag.t

(** {2 Files: atomic writes with injectable faults} *)

(** Faults a chaos run can inject into {!to_file}, each deterministic:

    - [Die_mid_write]: the writer dies after a partial {e temp} write —
      the destination is untouched (atomicity holds); raises
      {!Killed_mid_write}.
    - [Torn_write]: a partial write lands at the {e destination} itself —
      the failure mode temp+rename prevents, injected to exercise the
      salvage reader; raises {!Killed_mid_write}.
    - [Flip_bit k]: the write completes, then bit [k] (mod file size) of
      the destination flips — post-write disk corruption.
    - [Truncate_at k]: the write completes, then the destination is cut
      to [k] bytes (mod file size). *)
type write_fault =
  | Die_mid_write
  | Torn_write
  | Flip_bit of int
  | Truncate_at of int

exception Killed_mid_write
(** Raised by [Die_mid_write] / [Torn_write] at the point the simulated
    SIGKILL lands, so a pool worker dies exactly as a real one would. *)

(** Write-to-temp then atomic rename ([path ^ ".tmp"], same directory,
    {!Sys.rename}).  With [fault], inject the given failure instead of /
    after the clean write. *)
val to_file : ?fault:write_fault -> string -> saved -> unit

(** Strict file reader ({!of_string} semantics).
    @raise Parse_error on damage; [Sys_error] on unreadable files. *)
val of_file : string -> saved
