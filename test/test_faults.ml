(* The fault-tolerance stack, bottom to top: the CRC line codec, the
   checksummed shard format and its salvage reader (with a QCheck oracle
   over arbitrary truncation and bit-flip points), atomic writes and
   injectable write faults, the pool's retry/backoff/quarantine layer,
   checkpoint resumption, and the end-to-end chaos invariant: a seeded
   fault plan with a retry budget must recover a merged profile
   byte-identical to the fault-free run. *)

module Crc32 = Pp_core.Crc32
module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Event = Pp_machine.Event
module Pool = Pp_run.Pool
module Faults = Pp_run.Faults
module Chaos = Pp_run.Chaos
module Checkpoint = Pp_run.Checkpoint
module Interp = Pp_vm.Interp
module Diag = Pp_ir.Diag

(* {2 CRC-32} *)

let test_crc_vector () =
  (* The IEEE 802.3 / zlib check value. *)
  Alcotest.(check int) "crc32(123456789)" 0xcbf43926 (Crc32.digest "123456789");
  Alcotest.(check int) "crc32 of empty" 0 (Crc32.digest "")

(* The header and the records [Crc32.unframe] accepts from [text]. *)
let unframe text =
  let records = ref [] in
  let record _ r =
    records := r :: !records;
    true
  in
  Result.map
    (fun (header, damage) -> (header, List.rev !records, damage))
    (Crc32.unframe ~record text)

let test_crc_tag_untag () =
  let line = "path 3 14 15 926" in
  let framed = Crc32.frame "shard" [ line ] in
  Alcotest.(check bool) "roundtrip" true
    (unframe framed = Ok ("shard", [ line ], None));
  (* A record line without its checksum token is damage. *)
  let header = List.hd (String.split_on_char '\n' framed) in
  (match unframe (header ^ "\n" ^ line ^ "\n") with
  | Ok (_, [], Some _) -> ()
  | _ -> Alcotest.fail "an untagged record was accepted");
  Alcotest.(check bool) "empty" true (Result.is_error (unframe ""))

let test_crc_detects_single_bit_flips () =
  (* CRC-32 detects every single-bit error: a framed file must never read
     back clean after one, whether the flip lands in a line's content, its
     token or a newline. *)
  let framed = Bytes.of_string (Crc32.frame "shard" [ "proc alpha 8" ]) in
  for bit = 0 to (8 * Bytes.length framed) - 1 do
    let b = Bytes.copy framed in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    match unframe (Bytes.to_string b) with
    | Ok (_, _, None) -> Alcotest.failf "flip of bit %d went undetected" bit
    | Ok (_, _, Some _) | Error _ -> ()
  done

(* {2 A synthetic saved profile, big enough to damage interestingly} *)

let pm freq m0 m1 = { Profile.freq; m0; m1 }

let saved () =
  Profile_io.canonical
    {
      Profile_io.program_hash = "cafe0123beef";
      mode = "flow+hw";
      pic0 = Event.Dcache_misses;
      pic1 = Event.Instructions;
      procs =
        [
          ("alpha", 8, [ (0, pm 3 5 7); (2, pm 10 0 4); (5, pm 1 1 1) ]);
          ("beta", 16, [ (1, pm 7 2 9); (9, pm 4 4 4); (15, pm 2 0 1) ]);
          ("gamma", 4, [ (3, pm 11 6 2) ]);
        ];
      feasible = [ ("alpha", 6); ("beta", 12) ];
      coverage = [ ("beta", (13, 40)) ];
    }

let records_of (s : Profile_io.saved) =
  List.length s.Profile_io.feasible
  + List.length s.Profile_io.coverage
  + List.fold_left
      (fun acc (_, _, paths) -> acc + 1 + List.length paths)
      0 s.Profile_io.procs

(* {2 Format v2: roundtrip, strictness} *)

let test_v2_roundtrip () =
  let s = saved () in
  Alcotest.(check bool) "roundtrip" true
    (Fixtures.read_shard (Profile_io.to_string s) = s);
  match Profile_io.salvage_string (Profile_io.to_string s) with
  | Ok (s', None) ->
      Alcotest.(check bool) "salvage of intact = identity" true (s' = s)
  | Ok (_, Some _) -> Alcotest.fail "intact shard reported damage"
  | Error d -> Alcotest.failf "unexpected: %s" (Diag.to_string d)

let test_strict_reader_rejects_damage () =
  let text = Profile_io.to_string (saved ()) in
  let damaged = String.sub text 0 (String.length text - 10) in
  match Fixtures.read_shard damaged with
  | exception Profile_io.Parse_error (_, msg) ->
      Alcotest.(check bool) "message counts intact records" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "strict reader accepted a truncated shard"

(* {2 Salvage oracle: line layout of the serialized text} *)

(* [line_ends text] = the offset just past each line's content (i.e. of
   its newline).  A damaged byte at offset [o] belongs to the first line
   with [o <= end_i]. *)
let line_ends text =
  let lines = String.split_on_char '\n' text in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let ends = ref [] in
  let pos = ref 0 in
  List.iter
    (fun l ->
      ends := (!pos + String.length l) :: !ends;
      pos := !pos + String.length l + 1)
    lines;
  List.rev !ends

let check_salvage ~expect_recovered ~total result =
  match (result : _ result) with
  | Error d ->
      if expect_recovered >= 0 then
        Alcotest.failf "salvage failed: %s" (Diag.to_string d)
  | Ok (_, rep) ->
      if expect_recovered < 0 then
        Alcotest.fail "salvage succeeded on an unrecoverable header"
      else if expect_recovered = total then
        Alcotest.(check bool) "no damage reported" true (rep = None)
      else begin
        match rep with
        | None -> Alcotest.fail "damage went unreported"
        | Some r ->
            Alcotest.(check int) "total" total r.Profile_io.total;
            Alcotest.(check int) "recovered" expect_recovered
              r.Profile_io.recovered;
            Alcotest.(check int) "first bad line"
              (expect_recovered + 2)
              r.Profile_io.first_bad_line
      end

let prop_salvage_truncation =
  let s = saved () in
  let text = Profile_io.to_string s in
  let total = records_of s in
  let ends = line_ends text in
  QCheck.Test.make ~count:300
    ~name:"salvage recovers exactly the records before a truncation"
    QCheck.(int_bound (String.length text - 1))
    (fun t ->
      let damaged = String.sub text 0 t in
      let intact = List.filter (fun e -> e <= t) ends in
      let expect =
        if intact = [] then -1 (* header gone: unrecoverable *)
        else List.length intact - 1
      in
      check_salvage ~expect_recovered:expect ~total
        (Profile_io.salvage_string damaged);
      true)

let prop_salvage_bit_flip =
  let s = saved () in
  let text = Profile_io.to_string s in
  let total = records_of s in
  let ends = line_ends text in
  QCheck.Test.make ~count:300
    ~name:"a bit flip loses exactly the records from its line on"
    QCheck.(int_bound ((8 * String.length text) - 1))
    (fun bit ->
      let o = bit / 8 in
      let b = Bytes.of_string text in
      Bytes.set b o
        (Char.chr (Char.code (Bytes.get b o) lxor (1 lsl (bit mod 8))));
      let damaged = Bytes.to_string b in
      (* index of the first line whose content-or-terminator contains
         the flipped byte *)
      let line =
        let rec go i = function
          | [] -> i
          | e :: rest -> if o <= e then i else go (i + 1) rest
        in
        go 0 ends
      in
      let expect = if line = 0 then -1 else line - 1 in
      check_salvage ~expect_recovered:expect ~total
        (Profile_io.salvage_string damaged);
      true)

let test_salvage_golden () =
  let s = saved () in
  let text = Profile_io.to_string s in
  let total = records_of s in
  let ends = line_ends text in
  (* Cut mid-way through the fourth line: header + 2 records survive. *)
  let cut = List.nth ends 3 - 2 in
  (match Profile_io.salvage_string (String.sub text 0 cut) with
  | Ok (s', Some rep) ->
      Alcotest.(check int) "recovered" 2 rep.Profile_io.recovered;
      Alcotest.(check int) "total" total rep.Profile_io.total;
      Alcotest.(check int) "first bad line" 4 rep.Profile_io.first_bad_line;
      Alcotest.(check int) "prefix procs + feasible" 2
        (List.length s'.Profile_io.feasible)
  | Ok (_, None) -> Alcotest.fail "damage went unreported"
  | Error d -> Alcotest.failf "unexpected: %s" (Diag.to_string d))

(* {2 Atomic writes and injected write faults} *)

let with_tmp f =
  let path = Filename.temp_file "pp_faults" ".pprof" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let test_die_mid_write_is_atomic () =
  with_tmp (fun path ->
      let s = saved () in
      Profile_io.to_file path s;
      let bigger =
        match Profile_io.merge s s with Ok m -> m | Error _ -> assert false
      in
      let text = Profile_io.to_string bigger in
      (match
         Crc32.write_atomic
           ~fault:(Crc32.Crash_after (String.length text / 2))
           path text
       with
      | exception Crc32.Killed_mid_write -> ()
      | () -> Alcotest.fail "Crash_after did not kill the writer");
      (* The destination still holds the previous complete version. *)
      Alcotest.(check bool) "destination untouched" true
        (Profile_io.of_file path = s);
      Alcotest.(check bool) "partial temp left behind" true
        (Sys.file_exists (path ^ ".tmp")))

let test_torn_write_salvages () =
  with_tmp (fun path ->
      let s = saved () in
      (match
         Crc32.write_atomic ~fault:Crc32.Torn_write path
           (Profile_io.to_string s)
       with
      | exception Crc32.Killed_mid_write -> ()
      | () -> Alcotest.fail "Torn_write did not kill the writer");
      (* The destination is torn — exactly what atomic writes prevent;
         the strict reader refuses it and salvage recovers a prefix. *)
      (match Profile_io.of_file path with
      | exception Profile_io.Parse_error _ -> ()
      | _ -> Alcotest.fail "strict reader accepted a torn file");
      match Profile_io.salvage_file path with
      | Ok (_, Some rep) ->
          Alcotest.(check bool) "a strict prefix" true
            (rep.Profile_io.recovered < rep.Profile_io.total)
      | Ok (_, None) -> Alcotest.fail "torn file reported intact"
      | Error d -> Alcotest.failf "unsalvageable: %s" (Diag.to_string d))

let test_flip_and_truncate_faults () =
  with_tmp (fun path ->
      let text = Profile_io.to_string (saved ()) in
      Crc32.write_atomic ~fault:(Crc32.Flip_bit 2000) path text;
      (match Profile_io.of_file path with
      | exception Profile_io.Parse_error _ -> ()
      | _ -> Alcotest.fail "strict reader accepted a flipped file");
      Crc32.write_atomic ~fault:(Crc32.Truncate_at 120) path text;
      match Profile_io.of_file path with
      | exception Profile_io.Parse_error _ -> ()
      | _ -> Alcotest.fail "strict reader accepted a truncated file")

(* {2 Fault plans} *)

let test_plan_determinism () =
  let p1 = Faults.seeded Faults.Mixed ~seed:42 ~tasks:10 in
  let p2 = Faults.seeded Faults.Mixed ~seed:42 ~tasks:10 in
  Alcotest.(check string) "same summary" (Faults.summary p1)
    (Faults.summary p2);
  Alcotest.(check (list string)) "same plan" (Faults.describe_plan p1)
    (Faults.describe_plan p2);
  for task = 0 to 9 do
    Alcotest.(check bool) "same draw" true
      (Faults.fault_for p1 ~task ~attempt:1
      = Faults.fault_for p2 ~task ~attempt:1)
  done;
  let p3 = Faults.seeded Faults.Mixed ~seed:43 ~tasks:10 in
  Alcotest.(check bool) "different seed, different plan" false
    (Faults.describe_plan p1 = Faults.describe_plan p3)

let test_plan_respects_max_attempt () =
  let p = Faults.seeded Faults.Crash_heavy ~seed:7 ~tasks:12 in
  Alcotest.(check bool) "faults something" true (Faults.describe_plan p <> []);
  for task = 0 to 11 do
    (* Attempts past the budget run clean: retries must converge. *)
    Alcotest.(check bool) "attempt 2 clean" true
      (Faults.fault_for p ~task ~attempt:2 = None)
  done;
  Alcotest.(check bool) "out of range" true
    (Faults.fault_for p ~task:99 ~attempt:1 = None);
  Alcotest.(check bool) "empty plan" true
    (Faults.fault_for (Faults.seeded Faults.Mixed ~seed:7 ~tasks:0) ~task:0
       ~attempt:1
    = None)

let test_plan_kinds () =
  let crashy =
    function
    | Faults.Crash | Faults.Stall _ | Faults.Write (Crc32.Crash_after _) ->
        true
    | _ -> false
  in
  let p = Faults.seeded Faults.Crash_heavy ~seed:3 ~tasks:20 in
  for task = 0 to 19 do
    match Faults.fault_for p ~task ~attempt:1 with
    | None -> ()
    | Some f ->
        Alcotest.(check bool) "crash-heavy draws process faults" true
          (crashy f)
  done;
  let p = Faults.seeded Faults.Corruption_heavy ~seed:3 ~tasks:20 in
  for task = 0 to 19 do
    match Faults.fault_for p ~task ~attempt:1 with
    | None -> ()
    | Some f ->
        Alcotest.(check bool) "corruption-heavy draws data faults" true
          (not (crashy f));
        Alcotest.(check bool) "data faults are write faults" true
          (match f with Faults.Write _ -> true | _ -> false)
  done;
  Alcotest.(check bool) "kind named in the summary" true
    (String.starts_with ~prefix:"corruption-heavy seed 3:" (Faults.summary p))

(* {2 Pool retry / backoff / quarantine} *)

let test_retry_converges () =
  let sleeps = ref [] in
  let sleep d = sleeps := d :: !sleeps in
  let f ~attempt x = if attempt = 1 && x mod 2 = 0 then failwith "boom" else x * 10 in
  let outcomes, stats =
    Pool.map_retry ~jobs:1 ~retries:3 ~sleep f [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int)) "all converge" [ 0; 10; 20; 30; 40; 50 ]
    (List.filter_map Fixtures.outcome_ok outcomes);
  Alcotest.(check int) "retried" 3 stats.Pool.retried;
  Alcotest.(check int) "quarantined" 0 stats.Pool.quarantined;
  Alcotest.(check int) "attempts" 9 stats.Pool.attempts;
  Alcotest.(check int) "one backoff round" 1 (List.length !sleeps);
  (* The default backoff: a 50ms base with ±50% jitter. *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "delay within jitter bounds" true
        (d >= 0.025 && d <= 0.075))
    !sleeps

let test_retry_deterministic_schedule () =
  let run () =
    let sleeps = ref [] in
    let f ~attempt x = if attempt < 3 then failwith "flaky" else x in
    let _ =
      Pool.map_retry ~jobs:1 ~retries:4
        ~sleep:(fun d -> sleeps := d :: !sleeps)
        f [ 1; 2; 3 ]
    in
    List.rev !sleeps
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two rounds of backoff" true (List.length a = 2);
  Alcotest.(check bool) "identical schedules" true (a = b);
  (* Exponential: the round-2 delay exceeds round 1 even at extreme
     jitter draws (factor 2, jitter 0.5). *)
  match a with
  | [ d1; d2 ] ->
      Alcotest.(check bool) "backoff grows" true (d2 > d1 /. 3.0)
  | _ -> Alcotest.fail "expected two delays"

let test_retry_quarantine () =
  let outcomes, stats =
    Pool.map_retry ~jobs:1 ~retries:3
      ~sleep:(fun _ -> ())
      (fun ~attempt:_ x -> if x = 1 then failwith "always" else x)
      [ 0; 1; 2 ]
  in
  (match List.nth outcomes 1 with
  | Pool.Crashed _ -> ()
  | _ -> Alcotest.fail "expected the poisoned task to stay failed");
  Alcotest.(check int) "quarantined" 1 stats.Pool.quarantined;
  Alcotest.(check int) "ok" 2 stats.Pool.ok;
  Alcotest.(check int) "attempts: 1 + 3 + 1" 5 stats.Pool.attempts;
  let t1 = List.nth stats.Pool.task_stats 1 in
  Alcotest.(check int) "budget exhausted" 3 t1.Pool.attempts;
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "footer mentions quarantine" true
    (contains (Pool.footer stats) "quarantined")

let test_parent_verify_demotes_and_retries () =
  let rejected = Hashtbl.create 4 in
  let verify x v =
    if v <> x * 2 then Error "wrong answer"
    else if x = 2 && not (Hashtbl.mem rejected x) then begin
      (* Simulate damage the worker can't see: reject the first good
         result; the retry must then be accepted. *)
      Hashtbl.add rejected x ();
      Error "corrupt on disk"
    end
    else Ok ()
  in
  let outcomes, stats =
    Pool.map_retry ~jobs:1 ~retries:3
      ~sleep:(fun _ -> ())
      ~verify
      (fun ~attempt:_ x -> x * 2)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "all accepted" [ 2; 4; 6 ]
    (List.filter_map Fixtures.outcome_ok outcomes);
  Alcotest.(check int) "the rejected task retried" 1 stats.Pool.retried;
  Alcotest.(check int) "attempts" 4 stats.Pool.attempts

let test_map_stats_single_attempt_compat () =
  let outcomes, stats =
    Pool.map_stats ~jobs:1 (fun x -> x + 1) [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ]
    (List.filter_map Fixtures.outcome_ok outcomes);
  Alcotest.(check int) "attempts = tasks" 3 stats.Pool.attempts;
  Alcotest.(check int) "no retries" 0 stats.Pool.retried;
  List.iter
    (fun (t : Pool.task_stat) ->
      Alcotest.(check int) "one attempt" 1 t.Pool.attempts)
    stats.Pool.task_stats

(* {2 Checkpoints} *)

let with_ckpt_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pp_ckpt_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* Where [Checkpoint.run] saves shard [k]. *)
let ckpt_path dir k = Filename.concat dir (Printf.sprintf "shard-%d.ckpt" k)

(* Prints a float that only an exact (hex) encoding brings back. *)
let ckpt_program =
  lazy
    (Pp_minic.Compile.program ~name:"ckpt_fixture"
       {|
void main() {
  float x;
  x = 0.1 + 0.2;
  print(x);
  print(42);
}
|})

let ckpt_run ?(budget = 2_000_000) ~dir shards =
  Checkpoint.run ~dir ~budget ~jobs:1 ~shards (Lazy.force ckpt_program)

let test_checkpoint_roundtrip () =
  with_ckpt_dir (fun dir ->
      let fresh = ckpt_run ~dir 2 in
      (* Floats round-trip exactly (hex notation), so a resumed run
         reprints byte-identical output. *)
      let again = ckpt_run ~dir 2 in
      Alcotest.(check int) "both resumed" 2 again.Checkpoint.resumed;
      Alcotest.(check bool) "roundtrip" true
        (again.Checkpoint.total = fresh.Checkpoint.total);
      Alcotest.(check int) "absent shard runs" 2
        (ckpt_run ~dir 3).Checkpoint.resumed;
      (* The key is the program and the budget. *)
      Alcotest.(check int) "different key rejected" 0
        (ckpt_run ~budget:3_000_000 ~dir 2).Checkpoint.resumed)

let test_checkpoint_rejects_damage () =
  with_ckpt_dir (fun dir ->
      let fresh = ckpt_run ~dir 1 in
      let path = ckpt_path dir 0 in
      let text = In_channel.with_open_bin path In_channel.input_all in
      (* Any single corrupt byte must void the checkpoint, never load
         wrong data: the shard reruns and the total is unchanged.  (A flip
         cannot cancel out: xor 0x10 never restores the byte.) *)
      for o = 0 to String.length text - 1 do
        let b = Bytes.of_string text in
        Bytes.set b o (Char.chr (Char.code (Bytes.get b o) lxor 0x10));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
        let r = ckpt_run ~dir 1 in
        if r.Checkpoint.resumed <> 0 || r.Checkpoint.total <> fresh.Checkpoint.total
        then Alcotest.failf "corrupt byte %d loaded" o
      done)

(* {2 Chaos: the end-to-end invariant} *)

let chaos_src =
  {|
int acc;
int step(int x) {
  if (x % 3 == 0) { return x * 2; }
  return x + 1;
}
void main() {
  int i;
  for (i = 0; i < 12; i = i + 1) { acc = acc + step(i); }
  print(acc);
}
|}

let chaos_program = lazy (Pp_minic.Compile.program ~name:"chaos_fixture" chaos_src)

(* The sharded run behind [pp run --shards --checkpoint-dir], in process:
   a resumed run executes only the shards whose checkpoint is missing or
   damaged, and its total is the fresh run's.  (CI's kill/resume gate,
   without the timing.) *)
let test_checkpoint_resume () =
  with_ckpt_dir (fun dir ->
      let prog = Lazy.force chaos_program in
      let run () =
        let before = Pp_telemetry.Metrics.(snapshot default) in
        let r = Checkpoint.run ~dir ~budget:2_000_000 ~jobs:1 ~shards:4 prog in
        let ran =
          match
            List.assoc_opt "pool.tasks"
              Pp_telemetry.Metrics.(diff (snapshot default) before)
          with
          | Some (Pp_telemetry.Metrics.Counter n) -> n
          | _ -> 0
        in
        (r, ran)
      in
      let fresh, ran = run () in
      Alcotest.(check (pair int int)) "fresh: nothing resumed, 4 run" (0, 4)
        (fresh.Checkpoint.resumed, ran);
      Alcotest.(check bool) "fresh: complete" false (Checkpoint.degraded fresh);
      let total r = Option.get r.Checkpoint.total in
      Alcotest.(check int) "four shards summed"
        (4 * (Checkpoint.run_once ~budget:2_000_000 prog).Interp.instructions)
        (total fresh).Interp.instructions;
      (* A run killed after two shards: only the other two rerun. *)
      Sys.remove (ckpt_path dir 1);
      Sys.remove (ckpt_path dir 3);
      let resumed, ran = run () in
      Alcotest.(check (pair int int)) "missing shards rerun" (2, 2)
        (resumed.Checkpoint.resumed, ran);
      Alcotest.(check bool) "resumed total = fresh total" true
        (total resumed = total fresh);
      (* One flipped byte voids exactly that shard's checkpoint. *)
      let path = ckpt_path dir 2 in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string text in
      Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 0x10));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let flipped, ran = run () in
      Alcotest.(check (pair int int)) "damaged shard reruns" (3, 1)
        (flipped.Checkpoint.resumed, ran);
      Alcotest.(check bool) "flipped total = fresh total" true
        (total flipped = total fresh))

(* Crash points enumerated, not timed: for every shard k and every point
   at which its checkpoint write can die — before the temp write, at each
   line boundary of it, before the rename — and just after the rename,
   build the directory such a crash leaves (shards before k saved, shard
   k's write killed there) and resume.  Exactly the checkpoints that
   landed are resumed, and the total is the fresh run's. *)
let test_checkpoint_crash_points () =
  with_ckpt_dir (fun dir ->
      let prog = Lazy.force chaos_program in
      let shards = 3 in
      let run () =
        Checkpoint.run ~dir ~budget:2_000_000 ~jobs:1 ~shards prog
      in
      let fresh = run () in
      let saved =
        Array.init shards (fun k ->
            In_channel.with_open_bin (ckpt_path dir k)
              In_channel.input_all)
      in
      let clear () =
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
      in
      for k = 0 to shards - 1 do
        let text = saved.(k) in
        let n = String.length text in
        let boundaries =
          List.filter
            (fun i -> i = 0 || i = n || text.[i - 1] = '\n')
            (List.init (n + 1) Fun.id)
        in
        let points =
          List.map (fun i -> Some (Crc32.Crash_after i)) boundaries @ [ None ]
        in
        List.iter
          (fun fault ->
            clear ();
            for j = 0 to k - 1 do
              Crc32.write_atomic (ckpt_path dir j) saved.(j)
            done;
            (match Crc32.write_atomic ?fault (ckpt_path dir k) text with
            | exception Crc32.Killed_mid_write -> ()
            | () ->
                if fault <> None then Alcotest.fail "the write was not killed");
            let point =
              match fault with
              | Some (Crc32.Crash_after i) -> Printf.sprintf "byte %d of %d" i n
              | _ -> "after the rename"
            in
            let r = run () in
            Alcotest.(check int)
              (Printf.sprintf "shard %d, crash %s: resumed" k point)
              (if fault = None then k + 1 else k)
              r.Checkpoint.resumed;
            Alcotest.(check bool)
              (Printf.sprintf "shard %d, crash %s: total" k point)
              true
              (r.Checkpoint.total = fresh.Checkpoint.total))
          points
      done)

let with_chaos_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pp_chaos_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let run_chaos ~dir ~retries ~seed ~kind =
  let shards = 4 in
  let plan = Faults.seeded ~stall:0.0 kind ~seed ~tasks:shards in
  Alcotest.(check bool) "plan faults something" true
    (Faults.describe_plan plan <> []);
  match
    Chaos.run ~dir ~budget:2_000_000 ~jobs:1 ~retries
      ~sleep:(fun _ -> ())
      ~plan ~shards (Lazy.force chaos_program)
  with
  | Error d -> Alcotest.failf "chaos setup failed: %s" (Diag.to_string d)
  | Ok r -> r

let test_chaos_converges_with_retries () =
  with_chaos_dir (fun dir ->
      let r = run_chaos ~dir ~retries:3 ~seed:11 ~kind:Faults.Corruption_heavy in
      Alcotest.(check bool) "not degraded" false (Chaos.degraded r);
      Alcotest.(check bool) "byte-identical recovery" true r.Chaos.identical;
      Alcotest.(check int) "nothing quarantined" 0
        r.Chaos.stats.Pool.quarantined;
      Alcotest.(check bool) "faults really fired (retries happened)" true
        (r.Chaos.stats.Pool.retried > 0);
      Alcotest.(check string) "coverage line" "coverage: 4/4 shards"
        (Chaos.coverage r))

let test_chaos_mixed_converges () =
  with_chaos_dir (fun dir ->
      let r = run_chaos ~dir ~retries:3 ~seed:5 ~kind:Faults.Mixed in
      Alcotest.(check bool) "byte-identical recovery" true r.Chaos.identical;
      Alcotest.(check bool) "not degraded" false (Chaos.degraded r))

let test_chaos_degrades_without_retries () =
  with_chaos_dir (fun dir ->
      let r =
        run_chaos ~dir ~retries:1 ~seed:11 ~kind:Faults.Corruption_heavy
      in
      Alcotest.(check bool) "degraded" true (Chaos.degraded r);
      Alcotest.(check bool) "recovery incomplete" false r.Chaos.identical;
      Alcotest.(check bool) "coverage says degraded" true
        (let c = Chaos.coverage r in
         String.length c >= 10
         && String.sub c (String.length c - 10) 10 = "(degraded)"))

let suite =
  [
    Alcotest.test_case "crc: check vector" `Quick test_crc_vector;
    Alcotest.test_case "crc: tag/untag" `Quick test_crc_tag_untag;
    Alcotest.test_case "crc: detects all single-bit flips" `Quick
      test_crc_detects_single_bit_flips;
    Alcotest.test_case "v2: roundtrip" `Quick test_v2_roundtrip;
    Alcotest.test_case "v2: strict reader rejects damage" `Quick
      test_strict_reader_rejects_damage;
    QCheck_alcotest.to_alcotest prop_salvage_truncation;
    QCheck_alcotest.to_alcotest prop_salvage_bit_flip;
    Alcotest.test_case "salvage: golden prefix" `Quick test_salvage_golden;
    Alcotest.test_case "write: die mid-write is atomic" `Quick
      test_die_mid_write_is_atomic;
    Alcotest.test_case "write: torn write salvages" `Quick
      test_torn_write_salvages;
    Alcotest.test_case "write: flip and truncate faults" `Quick
      test_flip_and_truncate_faults;
    Alcotest.test_case "plan: deterministic" `Quick test_plan_determinism;
    Alcotest.test_case "plan: respects max attempt" `Quick
      test_plan_respects_max_attempt;
    Alcotest.test_case "plan: kind mixes" `Quick test_plan_kinds;
    Alcotest.test_case "retry: converges" `Quick test_retry_converges;
    Alcotest.test_case "retry: deterministic schedule" `Quick
      test_retry_deterministic_schedule;
    Alcotest.test_case "retry: quarantine" `Quick test_retry_quarantine;
    Alcotest.test_case "retry: parent verify demotes" `Quick
      test_parent_verify_demotes_and_retries;
    Alcotest.test_case "retry: map_stats compat" `Quick
      test_map_stats_single_attempt_compat;
    Alcotest.test_case "checkpoint: roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: rejects damage" `Quick
      test_checkpoint_rejects_damage;
    Alcotest.test_case "checkpoint: resume reruns only missing shards" `Quick
      test_checkpoint_resume;
    Alcotest.test_case "checkpoint: every crash point resumes" `Quick
      test_checkpoint_crash_points;
    Alcotest.test_case "chaos: converges with retries" `Quick
      test_chaos_converges_with_retries;
    Alcotest.test_case "chaos: mixed kind converges" `Quick
      test_chaos_mixed_converges;
    Alcotest.test_case "chaos: degrades without retries" `Quick
      test_chaos_degrades_without_retries;
  ]
