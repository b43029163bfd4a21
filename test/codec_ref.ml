(* Reference models for the differential properties in test_codecs.ml:
   the shard, CCT and wire codecs as they stood before they moved onto
   Writer and Cursor (Printf per record, String.split_on_char over the
   whole text, a Buffer per wire frame, a quadratic merge), copied
   verbatim.  Only the type declarations are re-bound to the production
   types, so a value from either side compares with (=). *)

module Profile = Pp_core.Profile
module Ball_larus = Pp_core.Ball_larus

module Crc32 = struct
  (* CRC-32 (IEEE 802.3), table-driven, reflected, init/xorout 0xffffffff —
     identical to zlib's crc32().  Masked to 32 bits so the value is a small
     non-negative int on 64-bit OCaml. *)

  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  let digest s =
    let table = Lazy.force table in
    let crc = ref 0xffffffff in
    String.iter
      (fun ch ->
        crc := table.((!crc lxor Char.code ch) land 0xff) lxor (!crc lsr 8))
      s;
    !crc lxor 0xffffffff

  let tag line =
    if String.contains line '\n' then invalid_arg "Crc32.tag: embedded newline";
    Printf.sprintf "%s %08x" line (digest line)

  let untag line =
    match String.rindex_opt line ' ' with
    | None -> None
    | Some i ->
        let content = String.sub line 0 i in
        let token = String.sub line (i + 1) (String.length line - i - 1) in
        (* Exactly the 8 lowercase hex digits %08x emits: int_of_string
           would also accept "0X", underscores and uppercase, which would
           let some single-character damage in the token itself pass. *)
        let canonical =
          String.length token = 8
          && String.for_all
               (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
               token
        in
        if canonical && int_of_string ("0x" ^ token) = digest content then
          Some content
        else None

  (* --- checked-line files --- *)

  let frame header records =
    let buf = Buffer.create 4096 in
    let line l =
      Buffer.add_string buf (tag l);
      Buffer.add_char buf '\n'
    in
    line (Printf.sprintf "%s %d" header (List.length records));
    List.iter line records;
    Buffer.contents buf

  type damage = Pp_core.Crc32.damage = {
    total : int;
    recovered : int;
    first_bad_line : int;
  }

  (* The header's last field is the record count; what precedes it is the
     caller's. *)
  let split_count content =
    let i = Option.value ~default:(-1) (String.rindex_opt content ' ') in
    let count = String.sub content (i + 1) (String.length content - i - 1) in
    match int_of_string_opt count with
    | Some n when n >= 0 && i >= 0 -> Ok (String.sub content 0 i, n)
    | _ -> Error (Printf.sprintf "bad record count %S" count)

  let unframe ~record text =
    let lines = Array.of_list (String.split_on_char '\n' text) in
    match untag lines.(0) with
    | None -> Error (1, "damaged or missing header checksum")
    | Some content -> (
        match split_count content with
        | Error msg -> Error (1, msg)
        | Ok (header, total) ->
            let recovered = ref 0 in
            let bad = ref None in
            let i = ref 1 in
            while !bad = None && !i < Array.length lines do
              let lineno = !i + 1 in
              let line = lines.(!i) in
              if line = "" then
                (* The writer never emits blank lines: this is the trailing
                   element after the final newline (end of file) or a
                   damaged line.  Either way, stop. *)
                i := Array.length lines
              else if !recovered >= total then
                (* More records than the header promised: the tail was
                   spliced or duplicated.  The promised prefix is intact;
                   everything beyond it is suspect. *)
                bad := Some lineno
              else begin
                (match untag line with
                | Some content when record lineno content -> incr recovered
                | _ -> bad := Some lineno);
                incr i
              end
            done;
            if !bad = None && !recovered = total then Ok (header, None)
            else
              Ok
                ( header,
                  Some
                    {
                      total;
                      recovered = !recovered;
                      first_bad_line =
                        (match !bad with Some ln -> ln | None -> !recovered + 2);
                    } ))

  (* The durable writer was not touched; the [to_file]s below use it. *)
  let write_atomic = Pp_core.Crc32.write_atomic
end

module Cct = Pp_core.Cct

module Cct_io = struct
  type 'a codec = 'a Pp_core.Cct_io.codec = {
    encode : 'a -> string;
    decode : string -> 'a;
  }

  let metrics_codec =
    {
      encode =
        (fun a ->
          String.concat " " (Array.to_list (Array.map string_of_int a)));
      decode =
        (fun s ->
          if String.trim s = "" then [||]
          else
            Array.of_list
              (List.map int_of_string
                 (String.split_on_char ' ' (String.trim s))));
    }


  (* Procedure names may contain anything but whitespace in practice; escape
     defensively anyway ('%' then spaces/newlines/percents as %XX). *)
  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | ' ' | '\n' | '\t' | '%' ->
            Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let unescape s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let hex i =
      match s.[i] with
      | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else if s.[i] <> '%' then begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
      else if i + 2 >= n then None
      else
        match (hex (i + 1), hex (i + 2)) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            go (i + 3)
        | _ -> None
    in
    go 0

  let write ~codec buf cct =
    Buffer.add_string buf
      (Printf.sprintf "cct 1 %d %d\n" (Cct.num_nodes cct)
         (if Cct.merged cct then 1 else 0));
    Cct.iter
      (fun node ->
        let parent =
          match Cct.parent node with Some p -> Cct.id p | None -> -1
        in
        Buffer.add_string buf
          (Printf.sprintf "node %d %d %d %d %s %s\n" (Cct.id node) parent
             (Cct.node_depth node) (Cct.nsites node)
             (escape (Cct.proc node))
             (codec.encode (Cct.data node))))
      cct;
    Cct.iter
      (fun node ->
        List.iter
          (fun (e : _ Cct.edge) ->
            Buffer.add_string buf
              (Printf.sprintf "edge %d %d %d %d %d %d\n" (Cct.id node)
                 e.Cct.site (Cct.id e.Cct.target)
                 (if e.Cct.is_backedge then 1 else 0)
                 (match e.Cct.kind with Cct.Indirect -> 1 | Cct.Direct -> 0)
                 e.Cct.calls))
          (Cct.edges node))
      cct

  let to_string ~codec cct =
    let buf = Buffer.create 4096 in
    write ~codec buf cct;
    Buffer.contents buf

  let to_file ~codec path cct = Crc32.write_atomic path (to_string ~codec cct)

  exception Parse_error of int * string

  let fail line fmt =
    Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

  let of_string ~codec text =
    let lines = String.split_on_char '\n' text in
    let nodes : (int, 'a Cct.node) Hashtbl.t = Hashtbl.create 64 in
    let cct = ref None in
    (* The header's line and node count, checked once the nodes are in. *)
    let declared = ref (0, 0) in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let int s =
          match int_of_string_opt s with
          | Some n -> n
          | None -> fail lineno "bad integer %S" s
        in
        let line = String.trim line in
        if line <> "" then
          match String.split_on_char ' ' line with
          | "cct" :: "1" :: count :: merged :: _ ->
              declared := (lineno, int count);
              (* Defer creation until the root's data arrives. *)
              cct := Some (`Header (merged = "1"))
          | "node" :: id :: parent :: _depth :: nsites :: name :: rest -> (
              let id = int id in
              let parent = int parent in
              let nsites = int nsites in
              let proc =
                match unescape name with
                | Some proc -> proc
                | None -> fail lineno "bad escape in %S" name
              in
              let data =
                let s = String.concat " " rest in
                try codec.decode s with Failure _ -> fail lineno "bad data %S" s
              in
              match (!cct, parent) with
              | Some (`Header merged), -1 ->
                  let t =
                    Cct.create ~merge_call_sites:merged
                      ~make_data:(fun ~proc:_ ~nsites:_ -> data)
                      ()
                  in
                  Hashtbl.replace nodes id (Cct.root t);
                  cct := Some (`Tree t)
              | Some (`Tree t), _ ->
                  if parent = -1 then fail lineno "duplicate root";
                  let parent_node =
                    match Hashtbl.find_opt nodes parent with
                    | Some n -> n
                    | None -> fail lineno "unknown parent %d" parent
                  in
                  let node =
                    Cct.graft_node t ~parent:parent_node ~proc ~nsites ~data
                  in
                  if Cct.id node <> id then
                    fail lineno "node ids must be dense and in order";
                  Hashtbl.replace nodes id node
              | Some (`Header _), _ -> fail lineno "first node must be the root"
              | None, _ -> fail lineno "node before header")
          | [ "edge"; from_; site; target; back; ind; calls ] -> (
              match !cct with
              | Some (`Tree t) ->
                  let find what id =
                    match Hashtbl.find_opt nodes (int id) with
                    | Some n -> n
                    | None -> fail lineno "unknown %s %s" what id
                  in
                  Cct.graft_edge t ~from_:(find "source" from_) ~site:(int site)
                    ~target:(find "target" target)
                    ~is_backedge:(back = "1")
                    ~kind:(if ind = "1" then Cct.Indirect else Cct.Direct)
                    ~calls:(int calls)
              | Some (`Header _) | None -> fail lineno "edge before nodes")
          | word :: _ -> fail lineno "unknown record %S" word
          | [] -> ())
      lines;
    match !cct with
    | Some (`Tree t) ->
        let lineno, count = !declared in
        if Cct.num_nodes t <> count then
          fail lineno "header declares %d nodes, found %d" count
            (Cct.num_nodes t);
        t
    | Some (`Header _) | None ->
        raise (Parse_error (0, "empty or headerless input"))

  let of_file ~codec path =
    of_string ~codec (In_channel.with_open_bin path In_channel.input_all)

  (* Metric arrays sum pointwise; a record seen by one tree only keeps (a
     copy of) its metrics. *)
  exception Arity

  let sum_metrics a b =
    match (a, b) with
    | Some a, Some b ->
        if Array.length a <> Array.length b then raise Arity;
        Array.init (Array.length a) (fun i -> a.(i) + b.(i))
    | Some a, None -> Array.copy a
    | None, Some b -> Array.copy b
    | None, None -> [||]

  let merge_files paths =
    let header = Pp_ir.Diag.proc_loc "<header>" in
    let add acc path =
      Result.bind acc (fun acc ->
          match (of_file ~codec:metrics_codec path, acc) with
          | next, None -> Ok (Some next)
          | next, Some t -> (
              match Cct.merge ~merge_data:sum_metrics t next with
              | merged -> Ok (Some merged)
              | exception Arity ->
                  Error
                    (`Conflict
                      (Pp_ir.Diag.error header
                         "metric arity differs between shards"))
              | exception Invalid_argument msg ->
                  Error (`Conflict (Pp_ir.Diag.error header "%s: %s" path msg)))
          | exception Parse_error (line, msg) ->
              Error (`Read (Printf.sprintf "%s:%d: %s" path line msg))
          | exception Sys_error msg -> Error (`Read msg))
    in
    match List.fold_left add (Ok None) paths with
    | Ok None -> Error (`Read "nothing to merge")
    | Ok (Some t) -> Ok t
    | Error e -> Error e

  let escape_label s =
    String.concat ""
      (List.map
         (function '"' -> "\\\"" | c -> String.make 1 c)
         (List.of_seq (String.to_seq s)))

  let to_dot cct =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "digraph cct {\n  node [shape=box];\n";
    Cct.iter
      (fun node ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\"];\n" (Cct.id node)
             (escape_label (Cct.proc node))))
      cct;
    Cct.iter
      (fun node ->
        List.iter
          (fun (e : _ Cct.edge) ->
            Buffer.add_string buf
              (Printf.sprintf "  n%d -> n%d [label=\"site %d, %d\"%s];\n"
                 (Cct.id node) (Cct.id e.Cct.target) e.Cct.site e.Cct.calls
                 (if e.Cct.is_backedge then ", style=dashed" else "")))
          (Cct.edges node))
      cct;
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end

module Profile_io = struct
  module Event = Pp_machine.Event
  module Diag = Pp_ir.Diag

  type saved = Pp_core.Profile_io.saved = {
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
end

module Profile_wire = struct
  (* The binary shard wire format `pp serve` speaks: a profile streams as a
     sequence of self-delimiting CRC-framed binary frames instead of one
     line-text file, so an aggregator can merge each procedure as it
     arrives and a torn connection leaves a cleanly decodable prefix.

     Frame layout (integers little-endian):

       +------+-------------+--------------+-----------------+
       | kind | len: u32 LE | crc: u32 LE  | payload (len B) |
       +------+-------------+--------------+-----------------+

     kind is 'H' (hello: stream header), 'P' (one procedure's records) or
     'E' (end: whole-shard totals, the stream's integrity summary).  crc is
     the Crc32 digest of the payload, the same polynomial the v2 text
     shards use per line.  Payload integers are zigzag LEB128 varints;
     strings are a varint length plus bytes. *)

  module Event = Pp_machine.Event

  let version = 1
  let max_payload = 1 lsl 24

  type header = Pp_core.Profile_wire.header = {
    program_hash : string;
    mode : string;
    pic0 : Event.t;
    pic1 : Event.t;
  }

  type proc_frame = Pp_core.Profile_wire.proc_frame = {
    name : string;
    npaths : int;
    feasible : int option;
    coverage : (int * int) option;
    paths : (int * Profile.path_metrics) list;
  }

  type summary = Pp_core.Profile_wire.summary = {
    nprocs : int;
    freq : int;
    m0 : int;
    m1 : int;
  }

  type frame = Pp_core.Profile_wire.frame =
    | Hello of header
    | Proc of proc_frame
    | End of summary

  (* --- varints --- *)

  let zigzag n = (n lsl 1) lxor (n asr 62)
  let unzigzag n = (n lsr 1) lxor (-(n land 1))

  let put_varint buf n =
    let n = ref (zigzag n) in
    let continue = ref true in
    while !continue do
      let b = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then begin
        Buffer.add_char buf (Char.chr b);
        continue := false
      end
      else Buffer.add_char buf (Char.chr (b lor 0x80))
    done

  let put_string buf s =
    put_varint buf (String.length s);
    Buffer.add_string buf s

  exception Malformed of string

  let mal fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

  (* Cursor-based payload reader. *)
  type cursor = { data : string; mutable pos : int }

  let get_varint c =
    let shift = ref 0 and acc = ref 0 and continue = ref true in
    while !continue do
      if c.pos >= String.length c.data then mal "truncated varint";
      if !shift > 62 then mal "varint overflow";
      let b = Char.code c.data.[c.pos] in
      c.pos <- c.pos + 1;
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    unzigzag !acc

  let get_string c =
    let n = get_varint c in
    if n < 0 || c.pos + n > String.length c.data then mal "truncated string";
    let s = String.sub c.data c.pos n in
    c.pos <- c.pos + n;
    s

  let get_event c =
    let s = get_string c in
    match Event.of_name s with
    | Some e -> e
    | None -> mal "unknown event %S" s

  (* --- payload codecs --- *)

  let hello_payload (h : header) =
    let buf = Buffer.create 64 in
    put_varint buf version;
    put_string buf h.program_hash;
    put_string buf h.mode;
    put_string buf (Event.name h.pic0);
    put_string buf (Event.name h.pic1);
    Buffer.contents buf

  let parse_hello c =
    let v = get_varint c in
    if v <> version then mal "unsupported wire version %d" v;
    let program_hash = get_string c in
    let mode = get_string c in
    let pic0 = get_event c in
    let pic1 = get_event c in
    { program_hash; mode; pic0; pic1 }

  let put_opt buf put = function
    | None -> put_varint buf 0
    | Some v ->
        put_varint buf 1;
        put v

  let get_opt c get =
    match get_varint c with
    | 0 -> None
    | 1 -> Some (get ())
    | k -> mal "bad option tag %d" k

  let proc_payload (p : proc_frame) =
    let buf = Buffer.create 256 in
    put_string buf p.name;
    put_varint buf p.npaths;
    put_opt buf (put_varint buf) p.feasible;
    put_opt buf
      (fun (sampled, total) ->
        put_varint buf sampled;
        put_varint buf total)
      p.coverage;
    put_varint buf (List.length p.paths);
    List.iter
      (fun (sum, (m : Profile.path_metrics)) ->
        put_varint buf sum;
        put_varint buf m.Profile.freq;
        put_varint buf m.Profile.m0;
        put_varint buf m.Profile.m1)
      p.paths;
    Buffer.contents buf

  let parse_proc c =
    let name = get_string c in
    let npaths = get_varint c in
    let feasible = get_opt c (fun () -> get_varint c) in
    let coverage =
      get_opt c (fun () ->
          let sampled = get_varint c in
          let total = get_varint c in
          (sampled, total))
    in
    let n = get_varint c in
    if n < 0 then mal "negative path count";
    let paths =
      List.init n (fun _ ->
          let sum = get_varint c in
          let freq = get_varint c in
          let m0 = get_varint c in
          let m1 = get_varint c in
          (sum, { Profile.freq; m0; m1 }))
    in
    { name; npaths; feasible; coverage; paths }

  let end_payload (s : summary) =
    let buf = Buffer.create 32 in
    put_varint buf s.nprocs;
    put_varint buf s.freq;
    put_varint buf s.m0;
    put_varint buf s.m1;
    Buffer.contents buf

  let parse_end c =
    let nprocs = get_varint c in
    let freq = get_varint c in
    let m0 = get_varint c in
    let m1 = get_varint c in
    { nprocs; freq; m0; m1 }

  (* --- framing --- *)

  let put_u32 buf n =
    Buffer.add_char buf (Char.chr (n land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

  let frame_string kind payload =
    let buf = Buffer.create (String.length payload + 9) in
    Buffer.add_char buf kind;
    put_u32 buf (String.length payload);
    put_u32 buf (Crc32.digest payload);
    Buffer.add_string buf payload;
    Buffer.contents buf

  let encode_frame = function
    | Hello h -> frame_string 'H' (hello_payload h)
    | Proc p -> frame_string 'P' (proc_payload p)
    | End s -> frame_string 'E' (end_payload s)

  (* --- shard <-> frame sequence --- *)

  let frames_of_saved (s : Profile_io.saved) =
    let s = Profile_io.canonical s in
    let header =
      Hello
        {
          program_hash = s.Profile_io.program_hash;
          mode = s.Profile_io.mode;
          pic0 = s.Profile_io.pic0;
          pic1 = s.Profile_io.pic1;
        }
    in
    let procs =
      List.map
        (fun (name, npaths, paths) ->
          Proc
            {
              name;
              npaths;
              feasible = List.assoc_opt name s.Profile_io.feasible;
              coverage = List.assoc_opt name s.Profile_io.coverage;
              paths;
            })
        s.Profile_io.procs
    in
    (* Feasible/coverage annotations for procedures without a proc record
       (e.g. a fully gated-off procedure) still need a carrier frame. *)
    let proc_names = List.map (fun (n, _, _) -> n) s.Profile_io.procs in
    let orphan name = not (List.mem name proc_names) in
    let orphans =
      List.sort_uniq compare
        (List.filter orphan (List.map fst s.Profile_io.feasible)
        @ List.filter orphan (List.map fst s.Profile_io.coverage))
    in
    let orphan_frames =
      List.map
        (fun name ->
          Proc
            {
              name;
              npaths = 0;
              feasible = List.assoc_opt name s.Profile_io.feasible;
              coverage = List.assoc_opt name s.Profile_io.coverage;
              paths = [];
            })
        orphans
    in
    let freq, m0, m1 = Profile_io.totals s in
    (header :: procs)
    @ orphan_frames
    @ [
        End
          {
            nprocs = List.length procs + List.length orphan_frames;
            freq;
            m0;
            m1;
          };
      ]

  let encode_saved s =
    String.concat "" (List.map encode_frame (frames_of_saved s))

  (* Reassemble a decoded frame sequence.  Proc frames with [npaths = 0]
     and no paths are annotation carriers: they contribute feasible /
     coverage entries but no procs row. *)
  let saved_of_frames (h : header) (procs : proc_frame list) =
    Profile_io.canonical
      {
        Profile_io.program_hash = h.program_hash;
        mode = h.mode;
        pic0 = h.pic0;
        pic1 = h.pic1;
        procs =
          List.filter_map
            (fun (p : proc_frame) ->
              if p.npaths = 0 && p.paths = [] then None
              else Some (p.name, p.npaths, p.paths))
            procs;
        feasible =
          List.filter_map
            (fun (p : proc_frame) ->
              Option.map (fun k -> (p.name, k)) p.feasible)
            procs;
        coverage =
          List.filter_map
            (fun (p : proc_frame) ->
              Option.map (fun w -> (p.name, w)) p.coverage)
            procs;
      }

  (* --- incremental reader --- *)

  type reader = {
    mutable buf : Bytes.t;
    mutable len : int;  (* bytes buffered *)
    mutable pos : int;  (* consumed prefix *)
    mutable corrupt : string option;  (* sticky *)
  }

  let reader () =
    { buf = Bytes.create 4096; len = 0; pos = 0; corrupt = None }

  let feed r s =
    let n = String.length s in
    if r.len + n > Bytes.length r.buf then begin
      (* Compact the consumed prefix, then grow if still needed. *)
      if r.pos > 0 then begin
        Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
        r.len <- r.len - r.pos;
        r.pos <- 0
      end;
      if r.len + n > Bytes.length r.buf then begin
        let cap = ref (max 4096 (2 * Bytes.length r.buf)) in
        while r.len + n > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit r.buf 0 bigger 0 r.len;
        r.buf <- bigger
      end
    end;
    Bytes.blit_string s 0 r.buf r.len n;
    r.len <- r.len + n

  let u32_at b i =
    Char.code (Bytes.get b i)
    lor (Char.code (Bytes.get b (i + 1)) lsl 8)
    lor (Char.code (Bytes.get b (i + 2)) lsl 16)
    lor (Char.code (Bytes.get b (i + 3)) lsl 24)

  let pending r = r.len - r.pos

  let next r =
    match r.corrupt with
    | Some msg -> `Corrupt msg
    | None ->
        if pending r < 9 then `Need_more
        else begin
          let kind = Bytes.get r.buf r.pos in
          let len = u32_at r.buf (r.pos + 1) in
          let crc = u32_at r.buf (r.pos + 5) in
          if kind <> 'H' && kind <> 'P' && kind <> 'E' then begin
            r.corrupt <- Some (Printf.sprintf "bad frame kind 0x%02x"
                                 (Char.code kind));
            `Corrupt (Option.get r.corrupt)
          end
          else if len < 0 || len > max_payload then begin
            r.corrupt <- Some (Printf.sprintf "frame length %d out of range" len);
            `Corrupt (Option.get r.corrupt)
          end
          else if pending r < 9 + len then `Need_more
          else begin
            let payload = Bytes.sub_string r.buf (r.pos + 9) len in
            if Crc32.digest payload <> crc then begin
              r.corrupt <- Some "frame checksum mismatch";
              `Corrupt (Option.get r.corrupt)
            end
            else begin
              r.pos <- r.pos + 9 + len;
              let c = { data = payload; pos = 0 } in
              match
                match kind with
                | 'H' -> Hello (parse_hello c)
                | 'P' -> Proc (parse_proc c)
                | _ -> End (parse_end c)
              with
              | frame -> `Frame frame
              | exception Malformed msg ->
                  r.corrupt <- Some msg;
                  `Corrupt msg
            end
          end
        end
end
