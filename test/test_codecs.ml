(* The shard, CCT and wire codecs against the reference models in
   codec_ref.ml: every encoder must write the reference's bytes, and every
   decoder must come to the reference's outcome (the value, the salvage
   report, or the same located error) on valid encodings and on damaged
   ones — bits flipped, bytes inserted or deleted, texts truncated and
   spliced — and on checked lines whose CRC holds but whose fields are
   junk.  The merge is checked the same way on canonical shards. *)

module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Wire = Pp_core.Profile_wire
module Crc32 = Pp_core.Crc32
module Cct = Pp_core.Cct
module Cct_io = Pp_core.Cct_io
module Cursor = Pp_core.Cursor
module Serve = Pp_run.Serve
module Event = Pp_machine.Event
module Diag = Pp_ir.Diag
module Ref = Codec_ref

(* {2 Generators, driven by one seeded state per case} *)

let pick rng l = List.nth l (Random.State.int rng (List.length l))
let chance rng p = Random.State.float rng 1.0 < p

(* Names the escaping must handle: space, '%', tab, newline, an empty
   name, and one that looks escaped already. *)
let names =
  [ "main"; "f"; "g"; "a b"; "x%y"; "t\tab"; "n\nl"; ""; "%41"; "p10"; "p2"; "Z" ]

let metric rng =
  match Random.State.int rng 8 with
  | 0 -> max_int
  | 1 -> min_int
  | 2 -> -Random.State.int rng 1000
  | 3 -> 0
  | _ -> Random.State.int rng 100_000

(* A consistent potential-path count per name, sometimes not, so merges
   both sum and conflict. *)
let npaths_of rng name =
  if chance rng 0.05 then 1 + Random.State.int rng 50 else 7 + String.length name

let gen_paths rng npaths =
  List.init (Random.State.int rng 6) (fun _ ->
      ( (if chance rng 0.1 then metric rng else Random.State.int rng (npaths + 1)),
        { Profile.freq = metric rng; m0 = metric rng; m1 = metric rng } ))

let subset rng l = List.filter (fun _ -> chance rng 0.4) l

(* Mostly distinct names, sometimes some twice. *)
let some_names rng =
  subset rng names @ if chance rng 0.2 then subset rng names else []

let hashes = [ "0123456789abcdef0123456789abcdef"; "h"; "a b"; "x%y" ]

(* A raw shard: procedures, annotations and windows in any order, names
   possibly repeated, some procedures carried by annotations only. *)
let gen_raw rng ~hash ~mode ~pic0 ~pic1 =
  let procs =
    List.map
      (fun name ->
        let n = npaths_of rng name in
        (name, n, gen_paths rng n))
      (some_names rng)
  in
  {
    Profile_io.program_hash = hash;
    mode;
    pic0;
    pic1;
    procs;
    feasible =
      List.map
        (fun name -> (name, if chance rng 0.1 then 1 else String.length name))
        (some_names rng);
    coverage =
      List.map
        (fun name ->
          let total = Random.State.int rng 40 in
          let sampled =
            if chance rng 0.2 then total else Random.State.int rng (total + 1)
          in
          (name, (sampled, total)))
        (some_names rng);
  }

let gen_header rng =
  ( (if chance rng 0.9 then List.hd hashes else pick rng hashes),
    pick rng [ "flow-hw"; "context-flow"; "edge freq"; "m%d" ],
    pick rng Event.all,
    pick rng Event.all )

let gen_shard rng =
  let hash, mode, pic0, pic1 = gen_header rng in
  gen_raw rng ~hash ~mode ~pic0 ~pic1

(* Two shards of one program (the header agrees unless [chance]). *)
let gen_pair rng =
  let hash, mode, pic0, pic1 = gen_header rng in
  let b = gen_raw rng ~hash ~mode ~pic0 ~pic1 in
  let b =
    if chance rng 0.05 then { b with Profile_io.pic1 = pick rng Event.all }
    else b
  in
  (gen_raw rng ~hash ~mode ~pic0 ~pic1, b)

(* A CCT from a random call trace: recursion makes backedges, some calls
   are indirect, and the tree merges call sites or not. *)
let gen_cct rng ~merged =
  let arity = Random.State.int rng 3 in
  let t =
    Cct.create ~merge_call_sites:merged
      ~make_data:(fun ~proc:_ ~nsites:_ -> Array.make arity 0)
      ()
  in
  let nsites proc = 1 + (String.length proc mod 3) in
  let rec go depth =
    for _ = 1 to Random.State.int rng 3 do
      let proc = pick rng names in
      let site = Random.State.int rng (Cct.nsites (Cct.current t)) in
      let kind = if chance rng 0.3 then Cct.Indirect else Cct.Direct in
      let n = Cct.enter t ~proc ~nsites:(nsites proc) ~site ~kind in
      Array.iteri (fun i v -> (Cct.data n).(i) <- v + metric rng) (Cct.data n);
      if depth < 4 then go (depth + 1);
      Cct.exit t
    done
  in
  ignore (Cct.enter t ~proc:"main" ~nsites:(nsites "main") ~site:0 ~kind:Cct.Direct);
  go 0;
  Cct.exit t;
  t

let gen_tree rng =
  let merged = chance rng 0.3 in
  let t = gen_cct rng ~merged in
  if chance rng 0.3 then
    match
      Cct.merge
        ~merge_data:(fun a b ->
          match (a, b) with
          | Some a, Some b when Array.length a = Array.length b ->
              Array.map2 ( + ) a b
          | Some a, _ | None, Some a -> Array.copy a
          | None, None -> [||])
        t (gen_cct rng ~merged)
    with
    | m -> m
    | exception Invalid_argument _ -> t
  else t

(* Fields that int_of_string reads in its own ways, or refuses. *)
let junk_ints =
  [
    "0"; "-0"; "+5"; "0x1f"; "0X1F"; "1_000"; "007"; "0u12"; "0b101"; "0o17";
    "-"; ""; "abc"; "1e3"; " 1"; string_of_int max_int; string_of_int min_int;
    "4611686018427387904"; "-4611686018427387905"; "99999999999999999999";
    "000000000000000000001"; "123456789012345678"; "-123456789012345678";
    "1234567890123456789";
  ]

let junk_words =
  [ "path"; "proc"; "feasible"; "coverage"; "cct"; "node"; "edge"; "x" ]
let junk_names = [ "f"; "a%20b"; "%zz"; "a%4"; "%"; "%2"; "ok%41" ]

let junk_record rng =
  let field () =
    match Random.State.int rng 3 with
    | 0 -> pick rng junk_ints
    | 1 -> pick rng junk_names
    | _ -> string_of_int (Random.State.int rng 20)
  in
  String.concat " "
    (pick rng junk_words :: List.init (Random.State.int rng 7) (fun _ -> field ()))

(* A shard whose every line is CRC-valid but whose records may be junk. *)
let junk_shard rng =
  let header =
    pick rng
      [
        "profile 2 h flow-hw dc_miss insts";
        "profile 2 h flow%zz dc_miss insts";
        "profile 2 h m dcache_misses instructions";
        "profile 3 h m dc_miss insts";
      ]
  in
  let records =
    List.init (Random.State.int rng 6) (fun _ ->
        if chance rng 0.5 then junk_record rng
        else
          pick rng
            [
              "proc f 3"; "path 1 2 3 4"; "feasible f 2"; "coverage f 1 2";
              "proc a%20b 1";
            ])
  in
  Ref.Crc32.frame header records

(* A CCT text whose lines are mostly well formed. *)
let junk_cct rng =
  let line () =
    match Random.State.int rng 4 with
    | 0 -> junk_record rng
    | 1 ->
        Printf.sprintf "node %s %s 1 %s %s %s" (pick rng junk_ints)
          (pick rng [ "0"; "-1"; "1"; "x" ])
          (pick rng [ "1"; "2"; "+1" ])
          (pick rng junk_names)
          (String.concat " "
             (List.init (Random.State.int rng 3) (fun _ -> pick rng junk_ints)))
    | 2 ->
        Printf.sprintf "edge %s %s %s %s 1 %s"
          (pick rng [ "0"; "1"; "9"; "z" ])
          (pick rng [ "0"; "1"; "z" ])
          (pick rng [ "0"; "1"; "7" ])
          (pick rng [ "0"; "1" ]) (pick rng junk_ints)
    | _ ->
        pick rng
          [ "cct 1 2 0"; "cct 1 1 1"; "cct 1 x 0"; "cct 2 1 0"; "  "; "\r" ]
  in
  String.concat "\n"
    (("cct 1 " ^ string_of_int (1 + Random.State.int rng 3) ^ " 0")
    :: "node 0 -1 0 2 <root> 1 2"
    :: List.init (Random.State.int rng 6) (fun _ -> line ()))

(* {2 Damage} *)

let interesting = " \n%-+0123456789abcdefx\t\r\xff"

(* Whole-line damage as well as byte damage: a checked line moved,
   repeated or dropped keeps its CRC, and a blank line ends a reader. *)
let mutate_lines rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let i = Random.State.int rng n and j = Random.State.int rng n in
  let l = Array.to_list lines in
  let l =
    match Random.State.int rng 4 with
    | 0 -> List.filteri (fun k _ -> k <> i) l
    | 1 ->
        List.concat
          (List.mapi (fun k x -> if k = i then [ x; lines.(j) ] else [ x ]) l)
    | 2 -> List.concat (List.mapi (fun k x -> if k = i then [ ""; x ] else [ x ]) l)
    | _ ->
        List.mapi
          (fun k x -> if k = i then lines.(j) else if k = j then lines.(i) else x)
          l
  in
  String.concat "\n" l

let mutate rng text =
  let n = String.length text in
  let any () = interesting.[Random.State.int rng (String.length interesting)] in
  if n = 0 then String.make 1 (any ())
  else
    let at = Random.State.int rng n in
    match Random.State.int rng 7 with
    | 0 ->
        let b = Bytes.of_string text in
        let bit = 1 lsl Random.State.int rng 8 in
        Bytes.set b at (Char.chr (Char.code text.[at] lxor bit));
        Bytes.to_string b
    | 1 ->
        let c = any () in
        String.sub text 0 at ^ String.make 1 c ^ String.sub text at (n - at)
    | 2 -> String.sub text 0 at ^ String.sub text (at + 1) (n - at - 1)
    | 3 -> String.sub text 0 at
    | 4 -> mutate_lines rng text
    | 5 ->
        (* The case of the letters in a short stretch: an uppercase CRC
           digit is damage. *)
        String.mapi
          (fun i c ->
            match c with
            | ('a' .. 'z' | 'A' .. 'Z') when i >= at && i < at + 12 ->
                Char.chr (Char.code c lxor 0x20)
            | c -> c)
          text
    | _ ->
        (* Splice: a piece of the text itself lands somewhere else. *)
        let from = Random.State.int rng n in
        let len = Random.State.int rng (n - from + 1) in
        String.sub text 0 at ^ String.sub text from len ^ String.sub text at (n - at)

let damaged rng text =
  if chance rng 0.2 then text
  else
    let rec go k t = if k = 0 then t else go (k - 1) (mutate rng t) in
    go (1 + Random.State.int rng 3) text

(* {2 Outcomes} *)

let fail fmt = QCheck.Test.fail_reportf fmt

let outcome f x =
  match f x with
  | v -> Ok v
  | exception e -> Error (Printexc.to_string e)

(* The two exceptions are distinct types; compare where they were
   raised. *)
let parse_outcome ~ours ~theirs f g x =
  let norm h x =
    match h x with
    | v -> Ok v
    | exception e -> (
        match (ours e, theirs e) with
        | Some l, _ | _, Some l -> Error (`Parse l)
        | None, None -> Error (`Other (Printexc.to_string e)))
  in
  (norm f x, norm g x)

let shard_errors =
  ( (function Profile_io.Parse_error (l, m) -> Some (l, m) | _ -> None),
    function Ref.Profile_io.Parse_error (l, m) -> Some (l, m) | _ -> None )

let cct_errors =
  ( (function Cct_io.Parse_error (l, m) -> Some (l, m) | _ -> None),
    function Ref.Cct_io.Parse_error (l, m) -> Some (l, m) | _ -> None )

let same what show a b =
  if a <> b then
    fail "%s differs:@.ours      %s@.reference %s" what (show a) (show b)

let show_string s = Printf.sprintf "%S" s
let show_any _ = "(values differ)"

let salvage_outcome = function
  | Ok v -> Ok v
  | Error d -> Error (Diag.to_string d)

(* {2 Encoders} *)

let records (s : Profile_io.saved) =
  List.fold_left (fun n (_, _, paths) -> n + List.length paths) 0 s.Profile_io.procs

let cct_text = Cct_io.to_string ~codec:Cct_io.metrics_codec
let ref_cct_text = Ref.Cct_io.to_string ~codec:Ref.Cct_io.metrics_codec

let check_encoders rng =
  let s = gen_shard rng in
  same "Profile_io.to_string" (function Ok s -> show_string s | Error e -> e)
    (outcome Profile_io.to_string s)
    (outcome Ref.Profile_io.to_string s);
  same "Profile_io.canonical" show_any (Profile_io.canonical s)
    (Ref.Profile_io.canonical s);
  same "Profile_io.totals" show_any (Profile_io.totals s) (Ref.Profile_io.totals s);
  let frames = Wire.frames_of_saved s in
  same "Profile_wire.frames_of_saved" show_any frames
    (Ref.Profile_wire.frames_of_saved s);
  same "Profile_wire.encode_saved" show_string (Wire.encode_saved s)
    (Ref.Profile_wire.encode_saved s);
  List.iter
    (fun f ->
      same "Profile_wire.encode_frame" show_string (Wire.encode_frame f)
        (Ref.Profile_wire.encode_frame f))
    frames;
  let procs = List.filter_map (function Wire.Proc p -> Some p | _ -> None) frames in
  let h =
    {
      Wire.program_hash = s.Profile_io.program_hash;
      mode = s.Profile_io.mode;
      pic0 = s.Profile_io.pic0;
      pic1 = s.Profile_io.pic1;
    }
  in
  let shuffled = List.sort (fun _ _ -> Random.State.int rng 3 - 1) procs in
  same "Profile_wire.saved_of_frames" show_any
    (Wire.saved_of_frames h shuffled)
    (Ref.Profile_wire.saved_of_frames h shuffled);
  let tree = gen_tree rng in
  same "Cct_io.to_string" show_string (cct_text tree) (ref_cct_text tree);
  let a = Cct.data (Cct.root tree) in
  same "metrics_codec.encode" show_string (Cct_io.metrics_codec.encode a)
    (Ref.Cct_io.metrics_codec.encode a);
  let name = pick rng names in
  same "Cct_io.escape" show_string (Cct_io.escape name) (Ref.Cct_io.escape name);
  let records = List.init (Random.State.int rng 4) (fun _ -> junk_record rng) in
  let records = if chance rng 0.05 then "a\nb" :: records else records in
  (* The reference's line writer is called [tag]; ours is [line], and
     each names itself in its error. *)
  let renamed =
    Result.map_error (fun e ->
        if e = {|Invalid_argument("Crc32.tag: embedded newline")|} then
          {|Invalid_argument("Crc32.line: embedded newline")|}
        else e)
  in
  same "Crc32.frame" (function Ok s -> show_string s | Error e -> e)
    (outcome (Crc32.frame "head") records)
    (renamed (outcome (Ref.Crc32.frame "head") records))

(* Merges of canonical shards: [merge], [merge_all] and the record count
   [merge_added] reports. *)
let check_merges rng =
  let a, b = gen_pair rng in
  let a = Ref.Profile_io.canonical a and b = Ref.Profile_io.canonical b in
  let show = function
    | Ok s -> Ref.Profile_io.to_string s
    | Error d -> Diag.to_string d
  in
  let ours = Profile_io.merge a b in
  same "Profile_io.merge" show ours (Ref.Profile_io.merge a b);
  (match (ours, Profile_io.merge_added a b) with
  | Ok m, Ok (m', added) ->
      same "merge_added's profile" show_any m m';
      if records m - records a <> added then
        fail "merge_added says %d records added, the result holds %d more" added
          (records m - records a)
  | Error _, Error _ -> ()
  | _ -> fail "merge and merge_added disagree");
  let c = Ref.Profile_io.canonical (fst (gen_pair rng)) in
  let c = { c with Profile_io.program_hash = a.Profile_io.program_hash } in
  let group = [ a; b; c ] in
  same "Profile_io.merge_all" show (Profile_io.merge_all group)
    (Ref.Profile_io.merge_all group)

(* {2 Decoders} *)

let check_shard_text what text =
  same (what ^ ": salvage_string") show_any
    (salvage_outcome (Profile_io.salvage_string text))
    (salvage_outcome (Ref.Profile_io.salvage_string text));
  let ours, theirs = shard_errors in
  let a, b =
    parse_outcome ~ours ~theirs Fixtures.read_shard Ref.Profile_io.of_string text
  in
  same (what ^ ": strict reader") show_any a b;
  let lines = ref [] and ref_lines = ref [] in
  let record acc lineno content =
    acc := (lineno, content) :: !acc;
    not (String.starts_with ~prefix:"x" content)
  in
  same (what ^ ": Crc32.unframe") show_any
    (Crc32.unframe ~record:(record lines) text, !lines)
    (Ref.Crc32.unframe ~record:(record ref_lines) text, !ref_lines)

(* The second line the CCT decoder reads as a header, if any: its number
   and the offset where it starts. *)
let second_cct_header text =
  let c = Cursor.create text in
  let is_header () =
    Cursor.trim c;
    (not (Cursor.is_empty c))
    && begin
         Cursor.split c;
         Cursor.fields c >= 4
         && Cursor.field_is c 0 "cct"
         && Cursor.field_is c 1 "1"
       end
  in
  let rec go seen =
    if not (Cursor.next_line c) then None
    else
      let start = Cursor.first c in
      if not (is_header ()) then go seen
      else if seen then Some (Cursor.line_no c, start)
      else go true
  in
  go false

let check_cct_text what text =
  let ours, theirs = cct_errors in
  let decode =
    parse_outcome ~ours ~theirs
      (fun t -> ref_cct_text (Cct_io.of_string ~codec:Cct_io.metrics_codec t))
      (fun t ->
        ref_cct_text (Ref.Cct_io.of_string ~codec:Ref.Cct_io.metrics_codec t))
  in
  let what = what ^ ": Cct_io.of_string" in
  match second_cct_header text with
  | None ->
      let a, b = decode text in
      same what show_any a b
  | Some (h, start) ->
      (* The reference reads on past a second header, where the decoder
         stops.  Give the reference the lines before it and then an
         unknown record: it fails at line [h] unless an earlier line
         failed, and the decoder must fail in the same place. *)
      let a, _ = decode text in
      let expected =
        match snd (decode (String.sub text 0 start ^ "?")) with
        | Error (`Parse (l, _)) when l = h ->
            Error (`Parse (h, "duplicate cct header"))
        | b -> b
      in
      same what show_any a expected

(* Feed [bytes] in random chunks, pulling frames after every feed. *)
let read_stream read feed next rng bytes =
  let r = read () in
  let out = ref [] and pos = ref 0 in
  let n = String.length bytes in
  let rec pump () =
    match next r with
    | `Frame f ->
        out := `Frame f :: !out;
        pump ()
    | `Need_more -> ()
    | `Corrupt m -> out := `Corrupt m :: !out
  in
  while !pos < n do
    let len = min (n - !pos) (1 + Random.State.int rng 64) in
    feed r (String.sub bytes !pos len);
    pos := !pos + len;
    pump ()
  done;
  pump ();
  List.rev !out

let check_wire what rng bytes =
  let seed = Random.State.bits rng in
  let ours =
    read_stream Wire.reader Wire.feed Wire.next (Random.State.make [| seed |]) bytes
  in
  let theirs =
    outcome
      (read_stream Ref.Profile_wire.reader Ref.Profile_wire.feed
         Ref.Profile_wire.next
         (Random.State.make [| seed |]))
      bytes
  in
  same (what ^ ": Profile_wire reader") show_any (Ok ours) theirs

(* A frame whose CRC holds over a payload of random varints and bytes:
   the payload parsers, not the checksum, meet the damage. *)
let junk_frame rng =
  let w = Buffer.create 32 in
  for _ = 0 to Random.State.int rng 12 do
    if chance rng 0.7 then Ref.Profile_wire.put_varint w (metric rng mod 300)
    else Buffer.add_char w (Char.chr (Random.State.int rng 256))
  done;
  Ref.Profile_wire.frame_string (pick rng [ 'H'; 'P'; 'E' ]) (Buffer.contents w)

let check_decoders rng =
  let s = gen_shard rng in
  (match Ref.Profile_io.to_string s with
  | text -> check_shard_text "shard" (damaged rng text)
  | exception Invalid_argument _ -> ());
  check_shard_text "junk shard" (damaged rng (junk_shard rng));
  let tree = gen_tree rng in
  check_cct_text "cct" (damaged rng (ref_cct_text tree));
  check_cct_text "junk cct" (damaged rng (junk_cct rng));
  let stream = Ref.Profile_wire.encode_saved s in
  check_wire "wire" rng (damaged rng stream);
  let frames = Ref.Profile_wire.frames_of_saved s in
  let spliced =
    String.concat ""
      (List.concat_map
         (fun f ->
           Ref.Profile_wire.encode_frame f
           :: (if chance rng 0.2 then [ junk_frame rng ] else []))
         frames)
  in
  check_wire "junk wire" rng spliced;
  let data =
    String.concat (pick rng [ " "; "  "; "\t"; "\n" ])
      (List.init (Random.State.int rng 4) (fun _ -> pick rng junk_ints))
  in
  let data = if chance rng 0.3 then " " ^ data ^ "\r" else data in
  same "metrics_codec.decode" show_any
    (outcome Cct_io.metrics_codec.decode data)
    (outcome Ref.Cct_io.metrics_codec.decode data);
  let name = damaged rng (pick rng junk_names) in
  same "Cct_io.unescape" show_any (Cct_io.unescape name) (Ref.Cct_io.unescape name)

let seeded name count check =
  QCheck.Test.make ~name ~count ~long_factor:50
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      check (Random.State.make [| seed; 29 |]);
      true)

let prop_encoders =
  seeded "encoders and merge write the reference's bytes" 200 (fun rng ->
      check_encoders rng;
      check_merges rng)

let prop_decoders =
  seeded "decoders match the reference under damage" 200 check_decoders

(* The reference reader (codec_ref.ml) bounds-checks a string field as
   [pos + n > length], which overflows for a length near max_int: a frame
   whose CRC holds then raises Invalid_argument out of [next].  The
   reader must call it corruption. *)
let test_wire_string_overflow () =
  let w = Buffer.create 16 in
  Ref.Profile_wire.put_varint w max_int;
  let frame = Ref.Profile_wire.frame_string 'P' (Buffer.contents w) in
  let r = Wire.reader () in
  Wire.feed r frame;
  match Wire.next r with
  | `Corrupt "truncated string" -> ()
  | `Corrupt m -> Alcotest.failf "corrupt, but %S" m
  | `Frame _ | `Need_more -> Alcotest.fail "frame accepted"

(* The aggregator's resident count follows its merges instead of walking
   the table: it must equal the walk after every add, with and without
   eviction. *)
let test_resident_count () =
  let rng = Random.State.make [| 29 |] in
  List.iter
    (fun max_records ->
      let agg = Serve.agg_create ?max_records () in
      let hash, mode, pic0, pic1 = gen_header rng in
      for _ = 1 to 40 do
        let s = Ref.Profile_io.canonical (gen_raw rng ~hash ~mode ~pic0 ~pic1) in
        ignore (Serve.agg_add agg s);
        let walked =
          match agg.Serve.merged with None -> 0 | Some m -> records m
        in
        Alcotest.(check int) "resident == walk" walked agg.Serve.resident
      done)
    [ None; Some 12 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_encoders;
    QCheck_alcotest.to_alcotest prop_decoders;
    Alcotest.test_case "wire string length near max_int is corruption" `Quick
      test_wire_string_overflow;
    Alcotest.test_case "aggregator resident count == walk" `Quick
      test_resident_count;
  ]
