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

   Version 2 (what to_string writes): every line carries a trailing
   CRC-32 token, and the header carries the body record count, so a
   damaged file degrades to a detectable valid prefix:

   profile 2 <hash> <mode> <pic0> <pic1> <nrecords> <crc>
   feasible <name-escaped> <num-feasible-paths> <crc>
   coverage <name-escaped> <sampled-commits> <total-commits> <crc>
   proc <name-escaped> <num-potential-paths> <crc>
   path <sum> <freq> <m0> <m1> <crc>

   Version 1 (still read): the same records without CRC tokens or the
   header count (and never a coverage record — sampled runs postdate the
   format).  A proc record opens a section; its path records follow.
   The optional feasible/coverage records sit between the header and the
   first proc. *)

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
  let body = body_lines s in
  let header =
    Printf.sprintf "profile 2 %s %s %s %s %d" s.program_hash
      (Cct_io.escape s.mode)
      (Cct_io.escape (Event.name s.pic0))
      (Cct_io.escape (Event.name s.pic1))
      (List.length body)
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string buf (Crc32.tag line);
      Buffer.add_char buf '\n')
    (header :: body);
  Buffer.contents buf

exception Parse_error of int * string

let fail line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let unescape lineno s =
  match Cct_io.unescape s with
  | Some s -> s
  | None -> fail lineno "bad escape in %S" s

(* Record dispatch shared by both format versions: [tokens] is one
   record line split on spaces, CRC already stripped for v2. *)
type pstate = {
  mutable procs : (string * int * (int * Profile.path_metrics) list ref) list;
      (* reversed *)
  mutable feasible : (string * int) list;  (* reversed *)
  mutable coverage : (string * (int * int)) list;  (* reversed *)
}

let dispatch_record lineno st = function
  | [ "feasible"; name; k ] ->
      let k =
        try int_of_string k
        with Failure _ -> fail lineno "bad feasible count %S" k
      in
      st.feasible <- (unescape lineno name, k) :: st.feasible
  | [ "coverage"; name; sampled; total ] ->
      let num s =
        try int_of_string s
        with Failure _ -> fail lineno "bad coverage count %S" s
      in
      st.coverage <-
        (unescape lineno name, (num sampled, num total)) :: st.coverage
  | [ "proc"; name; npaths ] ->
      let npaths =
        try int_of_string npaths
        with Failure _ -> fail lineno "bad path count %S" npaths
      in
      st.procs <- (unescape lineno name, npaths, ref []) :: st.procs
  | [ "path"; sum; freq; m0; m1 ] -> (
      let num s =
        try int_of_string s with Failure _ -> fail lineno "bad int %S" s
      in
      match st.procs with
      | [] -> fail lineno "path before proc"
      | (_, _, paths) :: _ ->
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

(* --- version 1 reader (no CRCs; trusted) --- *)

let of_string_v1 lines =
  let header = ref None in
  let st = { procs = []; feasible = []; coverage = [] } in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" then
        match String.split_on_char ' ' line with
        | [ "profile"; "1"; hash; mode; pic0; pic1 ] ->
            if !header <> None then fail lineno "duplicate header";
            header :=
              Some
                ( hash,
                  unescape lineno mode,
                  parse_event lineno pic0,
                  parse_event lineno pic1 )
        | tokens ->
            if !header = None then
              fail lineno "%s before header"
                (match tokens with w :: _ -> w | [] -> "record");
            dispatch_record lineno st tokens)
    lines;
  match !header with
  | None -> raise (Parse_error (0, "empty or headerless input"))
  | Some header -> finish_state ~header st

(* --- version 2 reader and salvage --- *)

type salvage_report = { total : int; recovered : int; first_bad_line : int }

(* Scan a version-2 shard front to back, CRC-checking every line, and
   stop at the first damaged or structurally invalid record.  Returns
   the parsed valid prefix plus a report when anything was dropped;
   [Error (lineno, msg)] when even the header is unusable. *)
let scan_v2 text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  if Array.length lines = 0 then Error (0, "empty input")
  else
    match Crc32.untag lines.(0) with
    | None -> Error (1, "damaged or missing header checksum")
    | Some content -> (
        match String.split_on_char ' ' content with
        | [ "profile"; "2"; hash; mode; pic0; pic1; total ] -> (
            match
              let total =
                match int_of_string_opt total with
                | Some n when n >= 0 -> n
                | _ -> fail 1 "bad record count %S" total
              in
              ( ( hash,
                  unescape 1 mode,
                  parse_event 1 pic0,
                  parse_event 1 pic1 ),
                total )
            with
            | exception Parse_error (ln, msg) -> Error (ln, msg)
            | header, total ->
                let st = { procs = []; feasible = []; coverage = [] } in
                let recovered = ref 0 in
                let bad = ref None in
                let i = ref 1 in
                while !bad = None && !i < Array.length lines do
                  let lineno = !i + 1 in
                  let line = lines.(!i) in
                  if line = "" then
                    (* The writer never emits blank lines: this is the
                       trailing element after the final newline (end of
                       file) or a damaged line.  Either way, stop. *)
                    i := Array.length lines
                  else if !recovered >= total then
                    (* More records than the header promised: the tail
                       was spliced or duplicated.  The promised prefix
                       is intact; everything beyond it is suspect. *)
                    bad := Some lineno
                  else begin
                    (match Crc32.untag line with
                    | None -> bad := Some lineno
                    | Some content -> (
                        match
                          dispatch_record lineno st
                            (String.split_on_char ' ' content)
                        with
                        | () -> incr recovered
                        | exception Parse_error _ -> bad := Some lineno));
                    incr i
                  end
                done;
                let saved = finish_state ~header st in
                if !bad = None && !recovered = total then Ok (saved, None)
                else
                  Ok
                    ( saved,
                      Some
                        {
                          total;
                          recovered = !recovered;
                          first_bad_line =
                            (match !bad with
                            | Some ln -> ln
                            | None -> !recovered + 2);
                        } ))
        | _ -> Error (1, "malformed version-2 header"))

let is_v2 text =
  let rec first = function
    | [] -> None
    | l :: rest ->
        let l = String.trim l in
        if l = "" then first rest else Some l
  in
  match first (String.split_on_char '\n' text) with
  | Some l -> String.length l >= 10 && String.sub l 0 10 = "profile 2 "
  | None -> false

let of_string text =
  if is_v2 text then
    match scan_v2 text with
    | Error (ln, msg) -> raise (Parse_error (ln, msg))
    | Ok (s, None) -> s
    | Ok (_, Some rep) ->
        raise
          (Parse_error
             ( rep.first_bad_line,
               Printf.sprintf
                 "damaged shard: only %d of %d records are intact (salvage \
                  readers can recover the valid prefix)"
                 rep.recovered rep.total ))
  else of_string_v1 (String.split_on_char '\n' text)

(* The pseudo-procedure "<shard>" locates whole-file damage, the same
   way merge mismatches sit at "<header>". *)
let salvage_diag ~file rep =
  Diag.error (Diag.proc_loc "<shard>")
    "%s:%d: salvaged %d of %d records; dropped %d damaged or missing \
     record%s"
    file rep.first_bad_line rep.recovered rep.total (rep.total - rep.recovered)
    (if rep.total - rep.recovered = 1 then "" else "s")

let salvage_string text =
  if is_v2 text then
    match scan_v2 text with
    | Ok result -> Ok result
    | Error (ln, msg) ->
        Error
          (Diag.error (Diag.proc_loc "<shard>") "line %d: %s (header \
                                                 unrecoverable)" ln msg)
  else
    (* Version 1 carries no checksums: either it parses in full or
       nothing can be trusted. *)
    match of_string_v1 (String.split_on_char '\n' text) with
    | s -> Ok (s, None)
    | exception Parse_error (ln, msg) ->
        Error
          (Diag.error (Diag.proc_loc "<shard>")
             "line %d: %s (not a checksummed shard; cannot salvage)" ln msg)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let salvage_file path =
  match read_all path with
  | text -> salvage_string text
  | exception Sys_error msg ->
      Error (Diag.error (Diag.proc_loc "<shard>") "%s" msg)

(* --- writing: atomic rename, with injectable faults for chaos runs --- *)

type write_fault =
  | Die_mid_write
  | Torn_write
  | Flip_bit of int
  | Truncate_at of int

exception Killed_mid_write

let write_raw path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let corrupt_file path f =
  let text = read_all path in
  write_raw path (f text)

let flip_bit text k =
  let bits = 8 * String.length text in
  if bits = 0 then text
  else
    let k = ((k mod bits) + bits) mod bits in
    let b = Bytes.of_string text in
    Bytes.set b (k / 8)
      (Char.chr (Char.code (Bytes.get b (k / 8)) lxor (1 lsl (k mod 8))));
    Bytes.to_string b

let truncate_at text k =
  let n = String.length text in
  if n = 0 then text
  else
    let k = ((k mod n) + n) mod n in
    String.sub text 0 k

let half text = String.sub text 0 (String.length text / 2)

let temp_path path = path ^ ".tmp"

let to_file ?fault path s =
  let payload = to_string s in
  match fault with
  | Some Die_mid_write ->
      (* The writer dies between opening the temp file and renaming it:
         the destination is untouched (the previous version, if any,
         survives intact), only a .tmp carcass is left behind. *)
      write_raw (temp_path path) (half payload);
      raise Killed_mid_write
  | Some Torn_write ->
      (* What a non-atomic writer leaves when killed: a partial file at
         the destination itself.  This is the failure mode the
         temp+rename discipline exists to prevent; injecting it
         exercises the salvage reader. *)
      write_raw path (half payload);
      raise Killed_mid_write
  | None | Some (Flip_bit _) | Some (Truncate_at _) -> (
      write_raw (temp_path path) payload;
      Sys.rename (temp_path path) path;
      match fault with
      | Some (Flip_bit k) -> corrupt_file path (fun t -> flip_bit t k)
      | Some (Truncate_at k) -> corrupt_file path (fun t -> truncate_at t k)
      | _ -> ())

let of_file path = of_string (read_all path)
