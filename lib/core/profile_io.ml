module Event = Pp_machine.Event
module Diag = Pp_ir.Diag

type saved = {
  program_hash : string;
  mode : string;
  pic0 : Event.t;
  pic1 : Event.t;
  procs : (string * int * (int * Profile.path_metrics) list) list;
  feasible : (string * int) list;
      (* per procedure: statically feasible path count, when the run was
         instrumented under a pruned numbering *)
  coverage : (string * (int * int)) list;
      (* per procedure: (sampled, total) path commits — the scaling
         certificate of a sampled run.  Exhaustive procedures (sampled =
         total) are dropped by [canonical], so unsampled shards carry no
         coverage records and a duty-1.0 sampled shard serializes
         byte-identically to an exhaustive one. *)
}

let program_hash prog = Digest.to_hex (Digest.string (Marshal.to_string prog []))

let sort_paths paths = List.sort (fun (a, _) (b, _) -> compare a b) paths

let rec sorted le = function
  | x :: (y :: _ as rest) -> le x y && sorted le rest
  | [] | [ _ ] -> true

let paths_sorted = sorted (fun (a, _) (b, _) -> a <= b)
let procs_sorted = sorted (fun (a, _, _) (b, _, _) -> String.compare a b <= 0)
let exhaustive (_, (sampled, total)) = sampled = total

(* A canonical input comes back as itself after one linear check; only
   the parts out of order are sorted (stably, as a full sort would). *)
let canonical s =
  let procs =
    if List.for_all (fun (_, _, paths) -> paths_sorted paths) s.procs then
      s.procs
    else List.map (fun (p, n, paths) -> (p, n, sort_paths paths)) s.procs
  in
  let procs =
    if procs_sorted procs then procs
    else List.sort (fun (a, _, _) (b, _, _) -> compare a b) procs
  in
  let feasible =
    if sorted ( <= ) s.feasible then s.feasible
    else List.sort compare s.feasible
  in
  let coverage =
    if List.exists exhaustive s.coverage then
      List.filter (fun w -> not (exhaustive w)) s.coverage
    else s.coverage
  in
  let coverage =
    if sorted ( <= ) coverage then coverage else List.sort compare coverage
  in
  if procs == s.procs && feasible == s.feasible && coverage == s.coverage then s
  else { s with procs; feasible; coverage }

let of_profile ?(feasible = []) ?(coverage = []) ~program_hash ~mode
    (p : Profile.t) =
  canonical
    {
      program_hash;
      mode;
      pic0 = p.Profile.pic0;
      pic1 = p.Profile.pic1;
      procs =
        List.map
          (fun (pp : Profile.proc_profile) ->
            ( pp.Profile.proc,
              Ball_larus.num_paths pp.Profile.numbering,
              pp.Profile.paths ))
          p.Profile.procs;
      feasible;
      coverage;
    }

let totals s =
  List.fold_left
    (fun acc (_, _, paths) ->
      List.fold_left
        (fun (f, a, b) (_, (m : Profile.path_metrics)) ->
          (f + m.Profile.freq, a + m.Profile.m0, b + m.Profile.m1))
        acc paths)
    (0, 0, 0) s.procs

(* The merge operations below report shard mismatches as structured
   diagnostics (the same Diag type `pp check` emits), located at the
   offending procedure — or the pseudo-procedure "<header>" for
   whole-profile disagreements. *)

let header_error fmt = Diag.error (Diag.proc_loc "<header>") fmt

let add_metrics (a : Profile.path_metrics) (b : Profile.path_metrics) =
  {
    Profile.freq = a.Profile.freq + b.Profile.freq;
    m0 = a.Profile.m0 + b.Profile.m0;
    m1 = a.Profile.m1 + b.Profile.m1;
  }

(* Two path lists sorted by sum, merged into one sorted list in which
   every sum appears once, its metrics summed (equal sums within one list
   too). *)
let merge_paths pa pb =
  let push acc ((sum, m) as r) =
    match acc with
    | (s, m') :: rest when s = sum -> (s, add_metrics m' m) :: rest
    | _ -> r :: acc
  in
  let rec go acc pa pb =
    match (pa, pb) with
    | [], [] -> List.rev acc
    | r :: pa', [] | [], r :: pa' -> go (push acc r) pa' []
    | ((sa, _) as ra) :: pa', ((sb, _) as rb) :: pb' ->
        if sa <= sb then go (push acc ra) pa' pb else go (push acc rb) pa pb'
  in
  go [] pa pb

let proc_freq paths =
  List.fold_left
    (fun acc (_, (m : Profile.path_metrics)) -> acc + m.Profile.freq)
    0 paths

let is_prev prev name =
  match prev with Some p -> String.equal p name | None -> false

(* The merge of two canonical shards walks both in name order once.  A
   procedure of [a] sums with the first of [b]'s procedures of its name;
   [b]'s procedures whose name [a] lacks join the result; the output is
   canonical as built.  [added] counts the path records the result holds
   beyond [a]'s.  Only [b] is canonicalized: [a] is a running total this
   module built, and checking it again would walk all of it per merge. *)
let merge_added a b =
  if a.program_hash <> b.program_hash then
    Error
      (header_error "program hash mismatch: %s vs %s (shards of different \
                     binaries cannot be summed)"
         a.program_hash b.program_hash)
  else if a.mode <> b.mode then
    Error
      (header_error "instrumentation mode mismatch: %s vs %s" a.mode b.mode)
  else if a.pic0 <> b.pic0 || a.pic1 <> b.pic1 then
    Error
      (header_error "PIC selection mismatch: %s/%s vs %s/%s"
         (Event.name a.pic0) (Event.name a.pic1) (Event.name b.pic0)
         (Event.name b.pic1))
  else begin
    let b = canonical b in
    let conflict = ref None in
    let added = ref 0 in
    (* [prev]: the last name of [a] passed.  [b]'s head is never below
       it, so a [b] record below [a]'s head shares a name with [a]
       exactly when it carries [prev]. *)
    let rec procs acc prev pa pb =
      match (pa, pb) with
      | [], _ ->
          List.rev_append acc
            (List.filter
               (fun (n, _, paths) ->
                 not (is_prev prev n)
                 && begin
                      added := !added + List.length paths;
                      true
                    end)
               pb)
      | _, [] -> List.rev_append acc pa
      | ((name, na, paths) as p) :: pa', ((bname, nb, bpaths) as q) :: pb' ->
          let c = String.compare name bname in
          if c < 0 then procs (p :: acc) (Some name) pa' pb
          else if c = 0 then
            if na <> nb then begin
              (* The last conflicting procedure is the one reported. *)
              conflict :=
                Some
                  (Diag.error (Diag.proc_loc name)
                     "numbered with %d potential paths in one shard, %d in \
                      the other"
                     na nb);
              procs (p :: acc) (Some name) pa' pb
            end
            else begin
              let merged = merge_paths paths bpaths in
              added := !added + List.length merged - List.length paths;
              procs ((name, na, merged) :: acc) (Some name) pa' pb
            end
          else if is_prev prev bname then procs acc prev pa pb'
          else begin
            added := !added + List.length bpaths;
            procs (q :: acc) prev pa pb'
          end
    in
    let procs = procs [] None a.procs b.procs in
    (* Feasible-path annotations must agree wherever both shards carry
       one (the first conflict is reported); otherwise take the union. *)
    let rec feasible acc prev fa fb =
      match (fa, fb) with
      | [], _ ->
          List.rev_append acc
            (List.filter (fun (n, _) -> not (is_prev prev n)) fb)
      | _, [] -> List.rev_append acc fa
      | ((name, ka) as p) :: fa', ((bname, kb) as q) :: fb' ->
          let c = String.compare name bname in
          if c < 0 then feasible (p :: acc) (Some name) fa' fb
          else if c = 0 then begin
            if ka <> kb && !conflict = None then
              conflict :=
                Some
                  (Diag.error (Diag.proc_loc name)
                     "feasible-path count mismatch: %d vs %d" ka kb);
            feasible (p :: acc) (Some name) fa' fb
          end
          else if is_prev prev bname then feasible acc prev fa fb'
          else feasible (q :: acc) prev fa fb'
    in
    let feasible = feasible [] None a.feasible b.feasible in
    (* Coverage windows sum pairwise.  A shard without a coverage entry
       for a procedure ran it exhaustively: its window defaults to
       (f, f) where f is the shard's recorded commit count (= frequency
       sum), so sampled and exhaustive shards compose exactly.  Procs
       covered by neither shard would default to a trivial window that
       [canonical] drops, so only procs named by at least one entry need
       merging.  Names come in order, so each shard's coverage and procs
       are walked once. *)
    let window name cov procs =
      let rec drop_below = function
        | (n, _, _) :: rest when String.compare n name < 0 -> drop_below rest
        | l -> l
      in
      match cov with
      | (n, w) :: rest when n = name ->
          let rec skip = function
            | (n, _) :: rest when n = name -> skip rest
            | l -> l
          in
          (w, skip rest, procs)
      | _ -> (
          match drop_below procs with
          | (n, _, paths) :: _ as procs when n = name ->
              let f = proc_freq paths in
              ((f, f), cov, procs)
          | procs -> ((0, 0), cov, procs))
    in
    let rec coverage acc ca pa cb pb =
      let name =
        match (ca, cb) with
        | [], [] -> None
        | (n, _) :: _, [] | [], (n, _) :: _ -> Some n
        | (na, _) :: _, (nb, _) :: _ ->
            Some (if String.compare na nb <= 0 then na else nb)
      in
      match name with
      | None -> List.rev acc
      | Some name ->
          let (sa, ta), ca, pa = window name ca pa in
          let (sb, tb), cb, pb = window name cb pb in
          let w = (name, (sa + sb, ta + tb)) in
          coverage (if exhaustive w then acc else w :: acc) ca pa cb pb
    in
    let coverage = coverage [] a.coverage a.procs b.coverage b.procs in
    match !conflict with
    | Some d -> Error d
    | None -> Ok ({ a with procs; feasible; coverage }, !added)
  end

let merge a b = Result.map fst (merge_added (canonical a) b)

let merge_all = function
  | [] -> Error (header_error "no profiles to merge")
  | s :: rest ->
      List.fold_left
        (fun acc next ->
          match acc with
          | Error _ -> acc
          | Ok s -> Result.map fst (merge_added s next))
        (Ok (canonical s)) rest

(* --- serialization ---

   Version 2 (what to_string writes) is {!Crc32.frame}d: every line
   carries a trailing CRC-32 token, and the header carries the body
   record count, so a damaged file degrades to a detectable valid
   prefix:

   profile 2 <hash> <mode> <pic0> <pic1> <nrecords> <crc>
   feasible <name-escaped> <num-feasible-paths> <crc>
   coverage <name-escaped> <sampled-commits> <total-commits> <crc>
   proc <name-escaped> <num-potential-paths> <crc>
   path <sum> <freq> <m0> <m1> <crc>

   A proc record opens a section; its path records follow.  The optional
   feasible/coverage records sit between the header and the first
   proc. *)

let records s =
  List.length s.feasible + List.length s.coverage
  + List.fold_left (fun n (_, _, paths) -> n + 1 + List.length paths) 0 s.procs

let to_string s =
  let s = canonical s in
  let nrecords = records s in
  let w = Writer.create (32 * (nrecords + 4)) in
  (* The header is a string, as {!Crc32.unframe} hands it back. *)
  Crc32.line w
    (String.concat " "
       [
         "profile";
         "2";
         s.program_hash;
         Cct_io.escape s.mode;
         Cct_io.escape (Event.name s.pic0);
         Cct_io.escape (Event.name s.pic1);
         string_of_int nrecords;
       ]);
  List.iter
    (fun (name, k) ->
      Writer.string w "feasible ";
      Writer.escaped w name;
      Writer.char w ' ';
      Writer.int w k;
      Crc32.end_line w)
    s.feasible;
  List.iter
    (fun (name, (sampled, total)) ->
      Writer.string w "coverage ";
      Writer.escaped w name;
      Writer.char w ' ';
      Writer.int w sampled;
      Writer.char w ' ';
      Writer.int w total;
      Crc32.end_line w)
    s.coverage;
  List.iter
    (fun (name, npaths, paths) ->
      Writer.string w "proc ";
      Writer.escaped w name;
      Writer.char w ' ';
      Writer.int w npaths;
      Crc32.end_line w;
      List.iter
        (fun (sum, (m : Profile.path_metrics)) ->
          Writer.string w "path ";
          Writer.int w sum;
          Writer.char w ' ';
          Writer.int w m.Profile.freq;
          Writer.char w ' ';
          Writer.int w m.Profile.m0;
          Writer.char w ' ';
          Writer.int w m.Profile.m1;
          Crc32.end_line w)
        paths)
    s.procs;
  Writer.contents w

exception Parse_error of int * string

let fail line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let unescape lineno s =
  match Cct_io.unescape s with
  | Some s -> s
  | None -> fail lineno "bad escape in %S" s

(* Record dispatch: the cursor's line is one record, its CRC already
   stripped, split into fields. *)
type pstate = {
  mutable procs : (string * int * (int * Profile.path_metrics) list ref) list;
      (* reversed *)
  mutable feasible : (string * int) list;  (* reversed *)
  mutable coverage : (string * (int * int)) list;  (* reversed *)
}

let int_field lineno what c i =
  try Cursor.int c i
  with Failure _ -> fail lineno "bad %s %S" what (Cursor.field c i)

let name_field lineno c i =
  match Cursor.unescaped c i with
  | Some s -> s
  | None -> fail lineno "bad escape in %S" (Cursor.field c i)

(* Each record's fields convert inside one tuple or record expression,
   which OCaml evaluates right to left: that order fixes which bad field
   a record with several reports. *)
let dispatch_record lineno st c =
  match Cursor.fields c with
  | 5 when Cursor.field_is c 0 "path" -> (
      match st.procs with
      | [] -> fail lineno "path before proc"
      | (_, _, paths) :: _ ->
          paths :=
            ( int_field lineno "int" c 1,
              {
                Profile.freq = int_field lineno "int" c 2;
                m0 = int_field lineno "int" c 3;
                m1 = int_field lineno "int" c 4;
              } )
            :: !paths)
  | 3 when Cursor.field_is c 0 "feasible" ->
      let k = int_field lineno "feasible count" c 2 in
      st.feasible <- (name_field lineno c 1, k) :: st.feasible
  | 4 when Cursor.field_is c 0 "coverage" ->
      let window =
        ( int_field lineno "coverage count" c 2,
          int_field lineno "coverage count" c 3 )
      in
      st.coverage <- (name_field lineno c 1, window) :: st.coverage
  | 3 when Cursor.field_is c 0 "proc" ->
      let npaths = int_field lineno "path count" c 2 in
      st.procs <- (name_field lineno c 1, npaths, ref []) :: st.procs
  | _ -> fail lineno "unknown record %S" (Cursor.field c 0)

let finish_state ~header st =
  let program_hash, mode, pic0, pic1 = header in
  canonical
    {
      program_hash;
      mode;
      pic0;
      pic1;
      procs =
        List.rev_map
          (fun (name, npaths, paths) -> (name, npaths, List.rev !paths))
          st.procs;
      feasible = List.rev st.feasible;
      coverage = List.rev st.coverage;
    }

let parse_event lineno s =
  match Event.of_name (unescape lineno s) with
  | Some e -> e
  | None -> fail lineno "unknown event %S" s

(* --- reader and salvage --- *)

type salvage_report = Crc32.damage = {
  total : int;
  recovered : int;
  first_bad_line : int;
}

(* A shard is Crc32-framed: scan it, keeping the valid record prefix,
   then parse the header.  A record whose CRC holds but which does not
   parse is not damage: its own error comes back with the prefix, for
   the strict reader to raise. *)
let scan text =
  let st = { procs = []; feasible = []; coverage = [] } in
  let malformed = ref None in
  let record lineno c =
    Cursor.split c;
    match dispatch_record lineno st c with
    | () -> true
    | exception Parse_error (ln, msg) ->
        malformed := Some (ln, msg);
        false
  in
  match Crc32.unframe_lines ~record text with
  | Error e -> Error e
  | Ok (header, damage) -> (
      match String.split_on_char ' ' header with
      | [ "profile"; "2"; hash; mode; pic0; pic1 ] -> (
          match
            (hash, unescape 1 mode, parse_event 1 pic0, parse_event 1 pic1)
          with
          | header -> Ok (finish_state ~header st, damage, !malformed)
          | exception Parse_error (ln, msg) -> Error (ln, msg))
      | _ -> Error (1, "malformed version-2 header"))

let of_string text =
  match scan text with
  | Error (ln, msg) | Ok (_, Some _, Some (ln, msg)) ->
      raise (Parse_error (ln, msg))
  | Ok (s, None, _) -> s
  | Ok (_, Some rep, None) ->
      raise
        (Parse_error
           ( rep.first_bad_line,
             Printf.sprintf
               "damaged shard: only %d of %d records are intact (salvage \
                readers can recover the valid prefix)"
               rep.recovered rep.total ))

let salvage_string text =
  match scan text with
  | Ok (s, damage, _) -> Ok (s, damage)
  | Error (ln, msg) ->
      Error
        (Diag.error (Diag.proc_loc "<shard>")
           "line %d: %s (header unrecoverable)" ln msg)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let salvage_file path =
  match read_all path with
  | text -> salvage_string text
  | exception Sys_error msg ->
      Error (Diag.error (Diag.proc_loc "<shard>") "%s" msg)

let to_file path s = Crc32.write_atomic path (to_string s)

let of_file path = of_string (read_all path)
