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

let canonical s =
  {
    s with
    procs =
      List.map (fun (p, n, paths) -> (p, n, sort_paths paths)) s.procs
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b);
    feasible = List.sort compare s.feasible;
    coverage =
      List.filter (fun (_, (sampled, total)) -> sampled <> total) s.coverage
      |> List.sort compare;
  }

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

let merge a b =
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
    let conflict = ref None in
    let add_paths table =
      List.iter (fun (sum, (m : Profile.path_metrics)) ->
          let cur =
            Option.value
              ~default:{ Profile.freq = 0; m0 = 0; m1 = 0 }
              (Hashtbl.find_opt table sum)
          in
          Hashtbl.replace table sum
            {
              Profile.freq = cur.Profile.freq + m.Profile.freq;
              m0 = cur.Profile.m0 + m.Profile.m0;
              m1 = cur.Profile.m1 + m.Profile.m1;
            })
    in
    let merged_proc (name, na, pa) =
      match List.find_opt (fun (n, _, _) -> n = name) b.procs with
      | Some (_, nb, _) when na <> nb ->
          conflict :=
            Some
              (Diag.error (Diag.proc_loc name)
                 "numbered with %d potential paths in one shard, %d in the \
                  other"
                 na nb);
          (name, na, pa)
      | Some (_, _, pb) ->
          let table = Hashtbl.create 32 in
          add_paths table pa;
          add_paths table pb;
          ( name,
            na,
            Hashtbl.fold (fun sum m acc -> (sum, m) :: acc) table []
            |> sort_paths )
      | None -> (name, na, pa)
    in
    let a_names = List.map (fun (n, _, _) -> n) a.procs in
    let procs =
      List.map merged_proc a.procs
      @ List.filter (fun (n, _, _) -> not (List.mem n a_names)) b.procs
    in
    (* Feasible-path annotations must agree wherever both shards carry
       one; otherwise take the union. *)
    let feasible =
      List.map
        (fun (name, ka) ->
          (match List.assoc_opt name b.feasible with
          | Some kb when ka <> kb ->
              if !conflict = None then
                conflict :=
                  Some
                    (Diag.error (Diag.proc_loc name)
                       "feasible-path count mismatch: %d vs %d" ka kb)
          | _ -> ());
          (name, ka))
        a.feasible
      @ List.filter
          (fun (name, _) -> not (List.mem_assoc name a.feasible))
          b.feasible
    in
    (* Coverage windows sum pairwise.  A shard without a coverage entry
       for a procedure ran it exhaustively: its window defaults to
       (f, f) where f is the shard's recorded commit count (= frequency
       sum), so sampled and exhaustive shards compose exactly.  Procs
       covered by neither shard would default to a trivial window that
       [canonical] drops, so only procs named by at least one entry need
       merging. *)
    let freq_sum s name =
      match List.find_opt (fun (n, _, _) -> n = name) s.procs with
      | Some (_, _, paths) ->
          List.fold_left
            (fun acc (_, (m : Profile.path_metrics)) -> acc + m.Profile.freq)
            0 paths
      | None -> 0
    in
    let window s name =
      match List.assoc_opt name s.coverage with
      | Some w -> w
      | None ->
          let f = freq_sum s name in
          (f, f)
    in
    let covered =
      List.sort_uniq compare
        (List.map fst a.coverage @ List.map fst b.coverage)
    in
    let coverage =
      List.map
        (fun name ->
          let sa, ta = window a name and sb, tb = window b name in
          (name, (sa + sb, ta + tb)))
        covered
    in
    match !conflict with
    | Some d -> Error d
    | None -> Ok (canonical { a with procs; feasible; coverage })
  end

let merge_all = function
  | [] -> Error (header_error "no profiles to merge")
  | s :: rest ->
      List.fold_left
        (fun acc next ->
          match acc with Error _ -> acc | Ok s -> merge s next)
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

let body_lines s =
  let buf = ref [] in
  let add l = buf := l :: !buf in
  List.iter
    (fun (name, k) ->
      add (Printf.sprintf "feasible %s %d" (Cct_io.escape name) k))
    s.feasible;
  List.iter
    (fun (name, (sampled, total)) ->
      add
        (Printf.sprintf "coverage %s %d %d" (Cct_io.escape name) sampled
           total))
    s.coverage;
  List.iter
    (fun (name, npaths, paths) ->
      add (Printf.sprintf "proc %s %d" (Cct_io.escape name) npaths);
      List.iter
        (fun (sum, (m : Profile.path_metrics)) ->
          add
            (Printf.sprintf "path %d %d %d %d" sum m.Profile.freq m.Profile.m0
               m.Profile.m1))
        paths)
    s.procs;
  List.rev !buf

let to_string s =
  let s = canonical s in
  Crc32.frame
    (Printf.sprintf "profile 2 %s %s %s %s" s.program_hash
       (Cct_io.escape s.mode)
       (Cct_io.escape (Event.name s.pic0))
       (Cct_io.escape (Event.name s.pic1)))
    (body_lines s)

exception Parse_error of int * string

let fail line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let unescape lineno s =
  match Cct_io.unescape s with
  | Some s -> s
  | None -> fail lineno "bad escape in %S" s

(* Record dispatch: [tokens] is one record line split on spaces, its CRC
   already stripped. *)
type pstate = {
  mutable procs : (string * int * (int * Profile.path_metrics) list ref) list;
      (* reversed *)
  mutable feasible : (string * int) list;  (* reversed *)
  mutable coverage : (string * (int * int)) list;  (* reversed *)
}

let int_field lineno what s =
  try int_of_string s with Failure _ -> fail lineno "bad %s %S" what s

let dispatch_record lineno st = function
  | [ "feasible"; name; k ] ->
      let k = int_field lineno "feasible count" k in
      st.feasible <- (unescape lineno name, k) :: st.feasible
  | [ "coverage"; name; sampled; total ] ->
      let window =
        ( int_field lineno "coverage count" sampled,
          int_field lineno "coverage count" total )
      in
      st.coverage <- (unescape lineno name, window) :: st.coverage
  | [ "proc"; name; npaths ] ->
      let npaths = int_field lineno "path count" npaths in
      st.procs <- (unescape lineno name, npaths, ref []) :: st.procs
  | [ "path"; sum; freq; m0; m1 ] -> (
      match st.procs with
      | [] -> fail lineno "path before proc"
      | (_, _, paths) :: _ ->
          let num = int_field lineno "int" in
          paths :=
            (num sum, { Profile.freq = num freq; m0 = num m0; m1 = num m1 })
            :: !paths)
  | word :: _ -> fail lineno "unknown record %S" word
  | [] -> ()

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
  let record lineno content =
    match dispatch_record lineno st (String.split_on_char ' ' content) with
    | () -> true
    | exception Parse_error (ln, msg) ->
        malformed := Some (ln, msg);
        false
  in
  match Crc32.unframe ~record text with
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

(* The pseudo-procedure "<shard>" locates whole-file damage, the same
   way merge mismatches sit at "<header>". *)
let salvage_diag ~file rep =
  Diag.error (Diag.proc_loc "<shard>")
    "%s:%d: salvaged %d of %d records; dropped %d damaged or missing \
     record%s"
    file rep.first_bad_line rep.recovered rep.total (rep.total - rep.recovered)
    (if rep.total - rep.recovered = 1 then "" else "s")

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
