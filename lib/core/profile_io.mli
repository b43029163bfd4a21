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

    Line-oriented like {!Cct_io}'s, in {!Crc32}'s checked-line framing:
    every line ends in a CRC token and the header carries the body record
    count, so any truncation or bit flip is detected and the undamaged
    record prefix stays recoverable:
    {v
    profile 2 <program-hash> <mode> <pic0> <pic1> <nrecords> <crc>
    feasible <name-escaped> <num-feasible-paths> <crc>
    coverage <name-escaped> <sampled-commits> <total-commits> <crc>
    proc <name-escaped> <num-potential-paths> <crc>
    path <sum> <freq> <m0> <m1> <crc>
    v}
    Version 2 is the only version read; the pre-checksum version 1 is
    not (its header is malformed as a version-2 header).

    [feasible] records (optional, one per statically pruned procedure)
    carry the feasible-path count the static analyzer certified when the
    run was instrumented; {!merge} refuses shards whose annotations
    disagree, so a pruned run never silently sums with an unpruned one's
    claims.

    {2 Fault tolerance}

    {!to_file} is {!Crc32.write_atomic}: a writer killed mid-shard leaves
    the destination untouched (a previous complete version survives; a
    fresh shard is simply absent) — never a torn file.  {!salvage_file}
    reads a shard that was damaged {e after} a successful write (disk
    corruption, a non-atomic copy): it recovers the valid record prefix
    and reports exactly how many records were dropped.  Chaos runs inject
    {!Crc32.fault}s into that writer to prove both properties end to end
    ([pp chaos]). *)

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

(** Whether the version-2 header can carry [h] as its program hash: it
    holds no space and no newline, as every {!program_hash} does. *)
val hash_fits_header : string -> bool

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
    associative on them.  A value already canonical is returned as is,
    after one linear check. *)
val canonical : saved -> saved

(** Total frequency and metric accumulators over all paths. *)
val totals : saved -> int * int * int

(** Sum two shards, in one walk of their canonical forms.  [Error d]
    (with [d] located at the offending procedure or at ["<header>"]) if
    the program hashes, modes, PIC selections, a procedure's
    potential-path counts or its feasible-path annotations disagree. *)
val merge : saved -> saved -> (saved, Pp_ir.Diag.t) result

(** {!merge}, with the number of path records the result holds beyond
    the first shard's: a caller that keeps a running record count adds
    it instead of walking the result.  The first shard must already be
    canonical (any value this module returned is); only the second is
    canonicalized, so merging a shard into a running total walks the
    shard, the total's procedure list and the procedures both carry,
    not every record of the total. *)
val merge_added : saved -> saved -> (saved * int, Pp_ir.Diag.t) result

(** Fold {!merge} over a non-empty list. *)
val merge_all : saved list -> (saved, Pp_ir.Diag.t) result

(** Serialize in the checksummed version-2 format (canonicalizes first,
    so equal profiles serialize byte-identically). *)
val to_string : saved -> string

exception Parse_error of int * string
(** Line number and message.  On a damaged shard the message says how
    many records are intact; use {!salvage_string} to recover them. *)

(** {2 Salvage: recovering damaged shards} *)

(** What a damaged shard's salvage kept: see {!Crc32.damage}. *)
type salvage_report = Crc32.damage = {
  total : int;
  recovered : int;
  first_bad_line : int;
}

(** Best-effort reader for a damaged shard: CRC-checks records front to
    back and stops at the first damaged or structurally invalid line.
    [Ok (s, None)] — the shard is intact.  [Ok (s, Some report)] — [s] is
    the valid record prefix and [report] says exactly what was dropped.
    [Error d] — the header itself is unusable, so nothing can be
    recovered. *)
val salvage_string : string -> (saved * salvage_report option, Pp_ir.Diag.t) result

(** {!salvage_string} on a file; unreadable files are [Error]. *)
val salvage_file : string -> (saved * salvage_report option, Pp_ir.Diag.t) result

(** {2 Files} *)

(** [Crc32.write_atomic path (to_string s)]. *)
val to_file : string -> saved -> unit

(** Strict reader: verifies every CRC and the record count.  A record
    whose CRC holds but which does not parse raises its own error at its
    line (e.g. [bad escape in "%zz"]), not a damage report.
    @raise Parse_error on malformed input or any detected damage;
    [Sys_error] on unreadable files. *)
val of_file : string -> saved
