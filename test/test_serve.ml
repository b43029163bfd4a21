(* The streaming aggregation service: the binary wire format, the
   bounded-memory aggregator, and the socket end-to-end.

   The load-bearing property is byte-identity: a fault-free streamed
   merge must equal the offline Profile_io.merge_all of the same shards
   exactly, whatever the arrival interleaving or chunking.  Faults must
   degrade exactly as the text shards do — valid prefix salvaged,
   nothing usable rejected, eviction an explicit degraded verdict. *)

module Event = Pp_machine.Event
module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Wire = Pp_core.Profile_wire
module Serve = Pp_run.Serve

let pm freq m0 m1 = { Profile.freq; m0; m1 }

(* Small synthetic shards with every record species: procs, paths,
   feasible annotations, coverage windows. *)
let shard i =
  Profile_io.canonical
    {
      Profile_io.program_hash = "cafe0123beef";
      mode = "flow+hw";
      pic0 = Event.Dcache_misses;
      pic1 = Event.Instructions;
      procs =
        [
          ( "alpha",
            8,
            [ (0, pm (3 + i) 5 7); (2, pm 10 0 (4 + i)); (5, pm 1 1 1) ] );
          ("beta", 16, [ (1, pm 7 (2 * i) 9); (9, pm 4 4 4) ]);
          ("gamma", 4, [ (3, pm (11 * (i + 1)) 6 2) ]);
        ];
      feasible = [ ("alpha", 6); ("beta", 12) ];
      coverage = [ ("beta", (13 + i, 40 + i)) ];
    }

let shards n = List.init n shard

let saved_eq =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Profile_io.to_string s))
    (fun a b -> Profile_io.to_string a = Profile_io.to_string b)

let merge_all_exn ss =
  match Profile_io.merge_all ss with
  | Ok m -> m
  | Error d -> Alcotest.failf "merge_all: %s" (Pp_ir.Diag.to_string d)

(* {2 Wire format} *)

(* Splitmix-ish chunker so the QCheck property exercises every framing
   boundary: feed the encoded stream in pseudo-random 1..9 byte pieces. *)
let chunks ~seed s =
  let rec go acc pos state =
    if pos >= String.length s then List.rev acc
    else
      let state = (state * 1103515245) + 12345 in
      let k = 1 + ((state lsr 16) mod 9) in
      let k = min k (String.length s - pos) in
      go (String.sub s pos k :: acc) (pos + k) state
  in
  go [] 0 (seed + 1)

let decode_all reader =
  let rec go acc =
    match Wire.next reader with
    | `Frame f -> go (f :: acc)
    | `Need_more -> Ok (List.rev acc)
    | `Corrupt msg -> Error (List.rev acc, msg)
  in
  go []

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip survives any chunking" ~count:60
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, i) ->
      let s = shard i in
      let reader = Wire.reader () in
      List.iter (Wire.feed reader) (chunks ~seed (Wire.encode_saved s));
      match decode_all reader with
      | Error _ -> false
      | Ok frames -> (
          match frames with
          | Wire.Hello h :: rest ->
              let procs =
                List.filter_map
                  (function Wire.Proc p -> Some p | _ -> None)
                  rest
              in
              Profile_io.to_string (Wire.saved_of_frames h procs)
              = Profile_io.to_string s
              && List.exists
                   (function Wire.End _ -> true | _ -> false)
                   rest
          | _ -> false))

let test_wire_corruption_sticky () =
  let s = shard 0 in
  let encoded = Wire.encode_saved s in
  (* Flip a byte inside the first proc frame's payload: its checksum
     must catch it, and the hello before it must survive.  (A flip in a
     frame's length field reads as truncation — Need_more — which is
     the incomplete-stream path, not this test's.) *)
  let hello_len =
    String.length (Wire.encode_frame (List.hd (Wire.frames_of_saved s)))
  in
  let pos = hello_len + 9 + 2 in
  let damaged =
    String.mapi
      (fun i c -> if i = pos then Char.chr (Char.code c lxor 0xff) else c)
      encoded
  in
  let reader = Wire.reader () in
  Wire.feed reader damaged;
  match decode_all reader with
  | Ok _ -> Alcotest.fail "damage was not detected"
  | Error (prefix, _msg) ->
      Alcotest.(check int) "the hello frame before the damage survives" 1
        (List.length prefix);
      (* Sticky: the reader keeps refusing after the damage. *)
      Wire.feed reader (Wire.encode_saved s);
      (match Wire.next reader with
      | `Corrupt _ -> ()
      | _ -> Alcotest.fail "corruption must be sticky")

let test_wire_oversized_rejected () =
  let reader = Wire.reader () in
  let buf = Buffer.create 16 in
  Buffer.add_char buf 'P';
  (* length field far beyond max_payload *)
  Buffer.add_string buf "\xff\xff\xff\x7f";
  Buffer.add_string buf "\x00\x00\x00\x00";
  Wire.feed reader (Buffer.contents buf);
  match Wire.next reader with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized frame must be rejected before allocation"

(* {2 The bounded-memory aggregator} *)

let test_agg_equals_offline () =
  let ss = shards 5 in
  let agg = Serve.agg_create () in
  List.iter
    (fun s ->
      match Serve.agg_add agg s with
      | Ok () -> ()
      | Error d -> Alcotest.failf "agg_add: %s" (Pp_ir.Diag.to_string d))
    ss;
  Alcotest.(check (option saved_eq))
    "incremental fold equals offline merge_all"
    (Some (merge_all_exn ss))
    (Serve.agg_finish agg)

let test_agg_eviction_degrades () =
  let ss = shards 5 in
  let agg = Serve.agg_create ~max_records:3 () in
  List.iter (fun s -> ignore (Serve.agg_add agg s)) ss;
  Alcotest.(check bool) "eviction happened" true (agg.Serve.evicted > 0);
  let resident =
    match agg.Serve.merged with
    | None -> 0
    | Some s ->
        List.fold_left
          (fun acc (_, _, paths) -> acc + List.length paths)
          0 s.Profile_io.procs
  in
  Alcotest.(check bool) "budget respected" true (resident <= 3);
  (* Deterministic: the same fold evicts the same records. *)
  let agg2 = Serve.agg_create ~max_records:3 () in
  List.iter (fun s -> ignore (Serve.agg_add agg2 s)) ss;
  Alcotest.(check (option saved_eq))
    "eviction is deterministic" (Serve.agg_finish agg)
    (Serve.agg_finish agg2)

let test_agg_spill_is_lossless () =
  let ss = shards 5 in
  let dir = Filename.temp_file "pp-spill" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () ->
      let agg = Serve.agg_create ~max_records:3 ~spill_dir:dir () in
      List.iter
        (fun s ->
          match Serve.agg_add agg s with
          | Ok () -> ()
          | Error d -> Alcotest.failf "agg_add: %s" (Pp_ir.Diag.to_string d))
        ss;
      Alcotest.(check bool) "spilled at least once" true
        (agg.Serve.spilled > 0);
      Alcotest.(check int) "nothing evicted" 0 agg.Serve.evicted;
      Alcotest.(check (option saved_eq))
        "spill + consolidate is lossless"
        (Some (merge_all_exn ss))
        (Serve.agg_finish agg))

(* {2 Socket end-to-end} *)

let temp_socket () =
  let path = Filename.temp_file "pp-serve" ".sock" in
  Sys.remove path;
  path

(* Stream shard [s] as a client does: from its file. *)
let send ?corrupt_after ~socket s =
  let path = Filename.temp_file "pp-client" ".pprof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile_io.to_file path s;
      Serve.send_file ?corrupt_after ~socket path)

(* Fork one sender per shard (children must _exit: they share the test
   runner's state) and aggregate in this process. *)
let e2e ?corrupt_first ss =
  let socket = temp_socket () in
  let pids =
    List.mapi
      (fun i s ->
        match Unix.fork () with
        | 0 ->
            let corrupt_after = if i = 0 then corrupt_first else None in
            let code =
              match send ?corrupt_after ~socket s with
              | Ok () -> 0
              | Error _ -> 1
              | exception _ -> 1
            in
            Unix._exit code
        | pid -> pid)
      ss
  in
  let verdict = Serve.serve ~socket ~expect:(List.length ss) () in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  verdict

let test_e2e_byte_identical () =
  let ss = shards 6 in
  let v = e2e ss in
  Alcotest.(check int) "all streams accepted" 6 v.Serve.accepted;
  Alcotest.(check bool) "not degraded" false (Serve.degraded v);
  Alcotest.(check (option saved_eq))
    "streamed merge equals offline merge_all"
    (Some (merge_all_exn ss))
    v.Serve.merged

let test_e2e_salvages_corrupt_stream () =
  let ss = shards 4 in
  (* Hello + one proc frame arrive intact, then garbage: the prefix must
     be salvaged, the rest dropped, and the service not degraded. *)
  let v = e2e ~corrupt_first:2 ss in
  Alcotest.(check int) "other streams accepted" 3 v.Serve.accepted;
  Alcotest.(check int) "torn stream salvaged" 1 v.Serve.salvaged;
  Alcotest.(check bool) "salvage alone never degrades" false
    (Serve.degraded v);
  (* The salvaged result equals the offline merge of the intact shards
     plus the torn shard's first procedure. *)
  let torn = shard 0 in
  let prefix =
    {
      torn with
      Profile_io.procs = [ List.hd torn.Profile_io.procs ];
      feasible =
        List.filter (fun (p, _) -> p = "alpha") torn.Profile_io.feasible;
      coverage = [];
    }
  in
  Alcotest.(check (option saved_eq))
    "salvaged prefix merged exactly"
    (Some (merge_all_exn (prefix :: List.tl ss)))
    v.Serve.merged

(* The aggregator's compatibility baseline is the first stream merged,
   so arrival order decides WHICH side of a mismatch gets rejected.
   Hold the incompatible client on a pipe until the three good streams
   have resolved (snapshot_every:1 fires once per resolved stream), so
   the test is deterministic under any scheduler. *)
let test_e2e_rejects_incompatible () =
  let good = shards 3 in
  let bad = { (shard 0) with Profile_io.mode = "flow+freq" } in
  let socket = temp_socket () in
  let r, w = Unix.pipe () in
  let sender ?gate s =
    match Unix.fork () with
    | 0 ->
        (match gate with
        | Some fd -> ignore (Unix.read fd (Bytes.create 1) 0 1)
        | None -> ());
        let code =
          match send ~socket s with
          | Ok () -> 0
          | Error _ -> 1
          | exception _ -> 1
        in
        Unix._exit code
    | pid -> pid
  in
  let pids = List.map sender good @ [ sender ~gate:r bad ] in
  let resolved = ref 0 in
  let release_bad _json =
    incr resolved;
    if !resolved = 3 then ignore (Unix.write w (Bytes.make 1 'g') 0 1)
  in
  let v =
    Serve.serve ~snapshot_every:1 ~snapshot:release_bad ~socket ~expect:4 ()
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  Unix.close r;
  Unix.close w;
  Alcotest.(check int) "good streams accepted" 3 v.Serve.accepted;
  Alcotest.(check int) "incompatible stream rejected" 1 v.Serve.rejected;
  Alcotest.(check bool) "rejection degrades the verdict" true
    (Serve.degraded v);
  Alcotest.(check (option saved_eq))
    "the incompatible stream contributed nothing"
    (Some (merge_all_exn good))
    v.Serve.merged

(* A drive client that fails before it sends must still resolve its
   stream, or the aggregator waits for it forever. *)
let test_drive_failed_client () =
  let ok i () = shard i in
  let v, failures =
    Serve.drive ~socket:(temp_socket ())
      [ ok 0; (fun () -> failwith "client died"); ok 1 ]
      ()
  in
  Alcotest.(check int) "one client failed" 1 failures;
  Alcotest.(check int) "the others accepted" 2 v.Serve.accepted;
  Alcotest.(check int) "the failed stream rejected" 1 v.Serve.rejected;
  Alcotest.(check bool) "degraded" true (Serve.degraded v);
  Alcotest.(check (option saved_eq))
    "the surviving streams merged"
    (Some (merge_all_exn (shards 2)))
    v.Serve.merged

let test_degraded_predicate () =
  let base =
    {
      Serve.expected = 4;
      accepted = 4;
      salvaged = 0;
      rejected = 0;
      spilled = 0;
      evicted_records = 0;
      peak_records = 0;
      bytes = 0;
      snapshots = 0;
      merged = None;
      conflict = None;
    }
  in
  Alcotest.(check bool) "clean run" false (Serve.degraded base);
  Alcotest.(check bool) "salvage alone is clean" false
    (Serve.degraded { base with Serve.accepted = 3; salvaged = 1 });
  Alcotest.(check bool) "short count degrades" true
    (Serve.degraded { base with Serve.accepted = 3 });
  Alcotest.(check bool) "eviction degrades" true
    (Serve.degraded { base with Serve.evicted_records = 1 });
  Alcotest.(check bool) "rejection degrades" true
    (Serve.degraded { base with Serve.accepted = 3; rejected = 1 })

let suite =
  [
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "wire corruption is sticky, prefix survives" `Quick
      test_wire_corruption_sticky;
    Alcotest.test_case "oversized frames rejected" `Quick
      test_wire_oversized_rejected;
    Alcotest.test_case "aggregator equals offline merge" `Quick
      test_agg_equals_offline;
    Alcotest.test_case "eviction bounds memory, degrades, deterministic"
      `Quick test_agg_eviction_degrades;
    Alcotest.test_case "spill keeps the merge lossless" `Quick
      test_agg_spill_is_lossless;
    Alcotest.test_case "e2e streamed merge is byte-identical" `Slow
      test_e2e_byte_identical;
    Alcotest.test_case "e2e corrupt stream salvaged, not degraded" `Slow
      test_e2e_salvages_corrupt_stream;
    Alcotest.test_case "e2e incompatible stream rejected, degraded" `Slow
      test_e2e_rejects_incompatible;
    Alcotest.test_case "drive: a failed client resolves, degraded" `Slow
      test_drive_failed_client;
    Alcotest.test_case "degraded verdict predicate" `Quick
      test_degraded_predicate;
  ]
