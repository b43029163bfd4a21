(* The self-telemetry layer: span nesting and ring-truncation repair in
   the tracer, the metrics merge algebra (the same laws Profile_io.merge
   obeys, over counters / gauges / histograms), the pool's metrics pipe
   protocol, the overhead accountant's two identities (instructions by
   probe category, cycles by cause), and the zero-perturbation guard: a
   session traced with telemetry must produce a byte-identical path
   profile to an untraced one. *)

module Trace = Pp_telemetry.Trace
module Metrics = Pp_telemetry.Metrics
module Json = Pp_telemetry.Json
module Overhead = Pp_run.Overhead
module Pool = Pp_run.Pool
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Profile_io = Pp_core.Profile_io
module Event = Pp_machine.Event

(* A clock that ticks 1ms per call: the first call (creation) reads 0,
   so event n lands at exactly n milliseconds. *)
let ticking_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 0.001;
    v

let count_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let json_balanced j = count_sub j "\"ph\":\"B\"" = count_sub j "\"ph\":\"E\""

(* {2 Tracer} *)

let test_span_nesting () =
  let tr = Trace.create ~clock:(ticking_clock ()) () in
  let r =
    Trace.with_span tr "outer" (fun () ->
        Trace.with_span tr "inner" (fun () -> 42))
  in
  Alcotest.(check int) "with_span passes the value through" 42 r;
  let shape =
    List.map
      (function
        | Trace.Begin { name; _ } -> "B:" ^ name
        | Trace.End { name; _ } -> "E:" ^ name
        | Trace.Counter { name; _ } -> "C:" ^ name
        | Trace.Instant { name; _ } -> "I:" ^ name)
      (Trace.events tr)
  in
  Alcotest.(check (list string))
    "spans nest" [ "B:outer"; "B:inner"; "E:inner"; "E:outer" ] shape

let test_span_end_on_raise () =
  let tr = Trace.create ~clock:(ticking_clock ()) () in
  (try Trace.with_span tr "doomed" (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check int) "begin and end recorded" 2
    (List.length (Trace.events tr));
  (* The raise unwound the span: the next one opens at the top level. *)
  Trace.with_span tr "next" ignore;
  Alcotest.(check string) "unwound" "[    3.000ms] next\n[    4.000ms] next done (1.000ms)\n"
    (String.concat "\n"
       (List.filteri (fun i _ -> i >= 2) (String.split_on_char '\n' (Trace.to_text tr))))

let test_null_records_nothing () =
  Trace.with_span Trace.null "a" (fun () ->
      Trace.counter Trace.null "c" [ ("x", 1) ];
      Trace.instant Trace.null "i");
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.null);
  Alcotest.(check (list unit)) "no events" []
    (List.map ignore (Trace.events Trace.null));
  Alcotest.(check string) "empty export"
    "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
    (Trace.to_chrome_json Trace.null)

let test_trace_golden () =
  let tr = Trace.create ~clock:(ticking_clock ()) () in
  Trace.with_span tr "compile" (fun () ->
      Trace.counter tr "vm" [ ("cycles", 42) ];
      Trace.instant tr "trap");
  Alcotest.(check string) "text export"
    "[    1.000ms] compile\n\
    \  [    2.000ms] counter vm cycles=42\n\
    \  [    3.000ms] instant trap\n\
     [    4.000ms] compile done (3.000ms)\n"
    (Trace.to_text tr);
  Alcotest.(check string) "chrome export"
    ("{\"traceEvents\":["
   ^ "{\"name\":\"compile\",\"cat\":\"pp\",\"ph\":\"B\",\"ts\":1000.000,\"pid\":1,\"tid\":1},"
   ^ "{\"name\":\"vm\",\"cat\":\"pp\",\"ph\":\"C\",\"ts\":2000.000,\"pid\":1,\"tid\":1,\"args\":{\"cycles\":42}},"
   ^ "{\"name\":\"trap\",\"cat\":\"pp\",\"ph\":\"i\",\"ts\":3000.000,\"pid\":1,\"tid\":1,\"s\":\"t\"},"
   ^ "{\"name\":\"compile\",\"cat\":\"pp\",\"ph\":\"E\",\"ts\":4000.000,\"pid\":1,\"tid\":1}"
   ^ "],\"displayTimeUnit\":\"ms\"}")
    (Trace.to_chrome_json tr)

let test_truncation_repair () =
  (* A tiny ring drops the Begin of the first span; its orphan End must
     not reach the export. *)
  let tr = Trace.create ~clock:(ticking_clock ()) ~capacity:3 () in
  Trace.with_span tr "a" (fun () -> Trace.with_span tr "b" ignore);
  Alcotest.(check int) "one event dropped" 1 (Trace.dropped tr);
  let j = Trace.to_chrome_json tr in
  Alcotest.(check bool) "orphan end repaired" true (json_balanced j);
  (* Spans still open at export get synthetic closers. *)
  let tr = Trace.create ~clock:(ticking_clock ()) () in
  let j =
    Trace.with_span tr "open1" (fun () ->
        Trace.with_span tr "open2" (fun () ->
            Trace.instant tr "mark";
            Trace.to_chrome_json tr))
  in
  Alcotest.(check int) "both ends synthesized" 2 (count_sub j "\"ph\":\"E\"");
  Alcotest.(check bool) "balanced" true (json_balanced j)

(* Random walks over open/close decisions, replayed onto rings of random
   capacity and exported where the walk ends, with its spans still open:
   whatever the ring dropped, the export stays balanced. *)
let prop_spans_balanced =
  QCheck.Test.make ~name:"trace export is B/E-balanced under truncation"
    ~count:200
    QCheck.(pair (small_list small_nat) (int_range 1 12))
    (fun (walk, capacity) ->
      let tr = Trace.create ~clock:(ticking_clock ()) ~capacity () in
      let exports = ref [] in
      (* Replay [walk] inside the current span: [Some rest] after its
         closing step, [None] once the walk ended (and was exported). *)
      let rec inside depth = function
        | [] ->
            (* to_text must not raise on the same repaired stream *)
            exports := (Trace.to_chrome_json tr, Trace.to_text tr) :: !exports;
            None
        | step :: rest when step mod 2 = 0 -> (
            match
              Trace.with_span tr (Printf.sprintf "s%d" (step / 2)) (fun () ->
                  inside (depth + 1) rest)
            with
            | Some rest -> inside depth rest
            | None -> None)
        | _ :: rest when depth > 0 -> Some rest
        | _ :: rest ->
            Trace.instant tr "i";
            inside depth rest
      in
      ignore (inside 0 walk);
      List.for_all (fun (j, _) -> json_balanced j) !exports)

(* {2 Metrics algebra} *)

(* Production has one registry, [Metrics.default], and merges snapshots
   into it with [absorb].  Each scope below works on a private copy of
   the default registry as this module loaded it, so what the scope
   recorded reads back as the diff of the copy's snapshots around it. *)
let pristine = Marshal.to_string Metrics.default []

let scoped f =
  let r : Metrics.t = Marshal.from_string pristine 0 in
  let before = Metrics.snapshot r in
  f r;
  Metrics.diff (Metrics.snapshot r) before

(* The snapshots absorbed in order into an empty scope. *)
let absorbed snaps = scoped (fun r -> List.iter (Metrics.absorb r) snaps)

(* Snapshots are generated by replaying random operations in an empty
   scope, so every generated value is reachable through the public API.
   Names are drawn from a fixed pool with fixed kinds so merges never see
   a kind mismatch. *)
type op = Op_incr of int * int | Op_gauge of int * int | Op_obs of int * int

let apply_op r = function
  | Op_incr (i, n) -> Metrics.incr r (Printf.sprintf "c.%d" (i mod 3)) n
  | Op_gauge (i, n) -> Metrics.set_gauge r (Printf.sprintf "g.%d" (i mod 2)) n
  | Op_obs (i, n) -> Metrics.observe r (Printf.sprintf "h.%d" (i mod 3)) n

let snapshot_of_ops ops = scoped (fun r -> List.iter (apply_op r) ops)

let gen_op =
  QCheck.Gen.(
    map2
      (fun k (i, n) ->
        match k mod 3 with
        | 0 -> Op_incr (i, n)
        | 1 -> Op_gauge (i, n)
        | _ -> Op_obs (i, n))
      (int_bound 2)
      (pair (int_bound 5) (int_bound 1000)))

let arb_ops = QCheck.make QCheck.Gen.(small_list gen_op)
let arb_snapshot = QCheck.map snapshot_of_ops arb_ops

let prop_merge_commutes =
  QCheck.Test.make ~name:"metrics merge commutes" ~count:200
    QCheck.(pair arb_snapshot arb_snapshot)
    (fun (a, b) -> absorbed [ a; b ] = absorbed [ b; a ])

let prop_merge_assoc =
  QCheck.Test.make ~name:"metrics merge associates" ~count:200
    QCheck.(triple arb_snapshot arb_snapshot arb_snapshot)
    (fun (a, b, c) ->
      absorbed [ a; absorbed [ b; c ] ] = absorbed [ absorbed [ a; b ]; c ])

let prop_merge_identity =
  QCheck.Test.make ~name:"empty is the merge identity" ~count:200 arb_snapshot
    (fun a -> absorbed [ a; [] ] = a && absorbed [ []; a ] = a)

(* The pool protocol's correctness law: what a worker recorded after the
   fork, merged back into the parent's state, reconstructs the worker's
   final state.  Gauges are excluded — diff keeps the absolute [after]
   value, so the law holds for them only when they grow monotonically. *)
let prop_diff_merge_roundtrip =
  QCheck.Test.make ~name:"merge (diff after before) before = after"
    ~count:200
    QCheck.(pair arb_ops arb_ops)
    (fun (ops1, ops2) ->
      let monotone =
        List.filter (function Op_gauge _ -> false | _ -> true)
      in
      let before = snapshot_of_ops (monotone ops1) in
      let after = snapshot_of_ops (monotone ops1 @ monotone ops2) in
      absorbed [ Metrics.diff after before; before ] = after)

(* An observation of [v] lands in bucket [k] with 2^(k-1) <= v < 2^k
   (bucket 0 for v <= 0). *)
let test_bucket_of () =
  let bucket v =
    match
      List.assoc "h" (scoped (fun r -> Metrics.observe r "h" v))
    with
    | Metrics.Histogram { buckets = [ (k, 1) ]; _ } -> k
    | _ -> Alcotest.failf "one observation of %d, not one bucket" v
  in
  Alcotest.(check int) "zero" 0 (bucket 0);
  Alcotest.(check int) "negative" 0 (bucket (-7));
  Alcotest.(check int) "one" 1 (bucket 1);
  List.iter
    (fun v ->
      let k = bucket v in
      Alcotest.(check bool)
        (Printf.sprintf "2^(k-1) <= %d < 2^k" v)
        true
        (k >= 1 && (1 lsl (k - 1)) <= v && v < 1 lsl k))
    [ 1; 2; 3; 4; 5; 7; 8; 100; 1023; 1024; 1 lsl 40 ]

let test_dump_golden () =
  let s =
    scoped (fun r ->
        Metrics.incr r "pool.tasks" 18;
        Metrics.set_gauge r "run.shards" 4;
        Metrics.observe r "matrix.cycles" 5;
        Metrics.observe r "matrix.cycles" 100)
  in
  Alcotest.(check string) "canonical dump"
    "hist matrix.cycles count=2 sum=105 b3=1 b7=1\n\
     counter pool.tasks 18\n\
     gauge run.shards 4\n"
    (Metrics.dump s)

(* Counters add, histograms add bucket-wise, gauges take the max. *)
let test_absorb_equals_merge () =
  let a = snapshot_of_ops [ Op_incr (0, 3); Op_obs (1, 9); Op_gauge (0, 2) ] in
  let b = snapshot_of_ops [ Op_incr (0, 4); Op_obs (1, 17); Op_gauge (0, 7) ] in
  Alcotest.(check string) "absorb = merge"
    "counter c.0 7\n\
     gauge g.0 7\n\
     hist h.1 count=2 sum=26 b4=1 b5=1\n"
    (Metrics.dump (absorbed [ a; b ]))

let test_merge_kind_mismatch () =
  match absorbed [ [ ("x", Metrics.Counter 1) ]; [ ("x", Metrics.Gauge 1) ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"

(* {2 The pool pipe protocol} *)

let test_pool_oversized_payload () =
  (* 8 MB is two orders of magnitude past the pipe buffer: the payload
     arrives as dozens of partial reads which the drain loop must
     reassemble, never tear. *)
  let big = 8 * 1024 * 1024 in
  let outcomes = Pool.map ~jobs:2 (fun n -> String.make n 'x') [ big; 64 ] in
  match outcomes with
  | [ Pool.Done a; Pool.Done b ] ->
      Alcotest.(check int) "oversized payload intact" big (String.length a);
      Alcotest.(check bool) "content intact" true (a = String.make big 'x');
      Alcotest.(check int) "small payload intact" 64 (String.length b)
  | _ ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat "; " (List.map Pool.describe outcomes))

let metric_task i =
  Metrics.incr Metrics.default "task.count" 1;
  Metrics.observe Metrics.default "task.square" (i * i);
  i

let test_pool_metrics_jobs_independent () =
  let run jobs =
    let before = Metrics.snapshot Metrics.default in
    let _ = Pool.map_stats ~jobs metric_task [ 1; 2; 3; 4; 5; 6 ] in
    Metrics.dump (Metrics.diff (Metrics.snapshot Metrics.default) before)
  in
  let serial = run 1 in
  let forked = run 3 in
  Alcotest.(check string) "dumps byte-identical at any jobs" serial forked;
  Alcotest.(check bool) "task metrics flowed back" true
    (count_sub forked "counter task.count 6" = 1)

let test_pool_metrics_no_double_count () =
  (* Values inherited from the parent at fork time must not be re-added
     when the worker's delta comes back. *)
  let before = Metrics.snapshot Metrics.default in
  Metrics.incr Metrics.default "task.count" 3;
  let _ = Pool.map ~jobs:2 metric_task [ 1; 2; 3; 4 ] in
  let s = Metrics.diff (Metrics.snapshot Metrics.default) before in
  match List.assoc "task.count" s with
  | Metrics.Counter n -> Alcotest.(check int) "3 inherited + 4 new" 7 n
  | _ -> Alcotest.fail "task.count is not a counter"

(* {2 Overhead accounting} *)

(* Over random programs and every mode, the probes' counted instructions
   sum to the instruction delta and every run's cycles are its
   instructions plus its event penalties. *)
let prop_attribution_identities =
  QCheck.Test.make ~name:"attribution identities hold on random programs"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = Test_random_programs.compile seed in
      let r = Overhead.compute ~budget:50_000_000 ~program:"random" prog in
      r.Overhead.failures = [] && Overhead.check r = Ok ())

let src =
  {|
int acc;
int step(int x) {
  if (x % 2 == 0) { return x / 2; }
  return 3 * x + 1;
}
void main() {
  int i;
  for (i = 1; i < 12; i = i + 1) {
    int n = i;
    while (n != 1) { n = step(n); }
    acc = acc + n;
  }
  print(acc);
}
|}

let program = lazy (Pp_minic.Compile.program ~name:"telemetry_fixture" src)

let count counters e =
  match List.assoc_opt e counters with Some v -> v | None -> 0

let check_identities (r : Overhead.report) =
  (match Overhead.check r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "attribution mismatch: %s" msg);
  let delta (row : Overhead.mode_row) e =
    count row.counters e - count r.base e
  in
  List.iter
    (fun (row : Overhead.mode_row) ->
      Alcotest.(check int)
        (row.mode ^ " instructions counted exactly")
        (delta row Event.Instructions)
        (List.fold_left (fun a (_, n) -> a + n) 0 row.direct);
      Alcotest.(check int)
        (row.mode ^ " cycles = issue + perturbation")
        (delta row Event.Cycles)
        (List.fold_left (fun a (_, n) -> a + n) 0 row.direct
        + List.fold_left
            (fun a (e, w) -> a + (w * delta row e))
            0 r.penalties))
    r.rows

let test_overhead_exact_attribution () =
  let r =
    Overhead.compute ~budget:50_000_000
      ~modes:[ Instrument.Flow_hw; Instrument.Edge_freq ]
      ~program:"telemetry_fixture" (Lazy.force program)
  in
  Alcotest.(check (list (pair string string))) "no failures" [] r.failures;
  check_identities r;
  (* Each mode's templates emit only their own categories. *)
  let used =
    List.map
      (fun (row : Overhead.mode_row) ->
        (row.mode, List.filter_map
                     (fun (c, n) -> if n > 0 then Some c else None)
                     row.direct))
      r.rows
  in
  Alcotest.(check bool) "categories each mode's probes use" true
    (used
    = [
        ("flow-hw", [ Overhead.Path_register; Table_commit; Counter_read ]);
        ("edge-freq", [ Overhead.Table_commit ]);
      ]);
  Alcotest.(check bool) "render carries the CI gate line" true
    (count_sub (Overhead.render r) "attribution: ok" = 1)

(* A report doctored by one d-cache read miss fails the cycle identity,
   and one doctored probe instruction fails the instruction identity;
   the error names the mode and the residual. *)
let test_overhead_doctored_report_fails () =
  let r =
    Overhead.compute ~budget:50_000_000 ~modes:[ Instrument.Flow_hw ]
      ~program:"telemetry_fixture" (Lazy.force program)
  in
  let doctor f = { r with rows = List.map f r.rows } in
  let bump e counters =
    List.map (fun (e', v) -> (e', if e' = e then v + 1 else v)) counters
  in
  let expect what r needle =
    match Overhead.check r with
    | Ok () -> Alcotest.failf "%s: check passed a doctored report" what
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names the mode and residual" what msg)
          true
          (count_sub msg "flow-hw" = 1 && count_sub msg needle = 1);
        Alcotest.(check bool) (what ^ ": render reports the mismatch") true
          (count_sub (Overhead.render r) "attribution: MISMATCH" = 1)
  in
  expect "dc_read_miss + 1"
    (doctor (fun row ->
         { row with counters = bump Event.Dcache_read_misses row.counters }))
    "residual -8";
  expect "path-register + 1"
    (doctor (fun row ->
         { row with direct = bump Overhead.Path_register row.direct }))
    "residual -1"

(* A program over both default thresholds: more than 4096 paths (hash
   commit stubs) and at least 64 integer registers (a spilled path
   register).  The identities hold in every mode, and the report is
   byte-identical on both engines and at any [jobs]. *)
let test_overhead_over_thresholds () =
  let prog =
    Pp_minic.Compile.program ~name:"thresholds" Fixtures.thresholds_src
  in
  let _, manifest = Instrument.run ~mode:Instrument.Flow_freq prog in
  Alcotest.(check bool) "a hash-table, spilled procedure" true
    (List.exists
       (fun (i : Instrument.proc_info) ->
         i.spilled
         && match i.table with Instrument.Hash_table _ -> true | _ -> false)
       manifest.Instrument.infos);
  let json engine jobs =
    let r =
      Overhead.compute ~budget:50_000_000 ~engine ~jobs ~program:"thresholds"
        prog
    in
    Alcotest.(check (list (pair string string))) "no failures" [] r.failures;
    Alcotest.(check int) "all five modes" 5 (List.length r.rows);
    check_identities r;
    Overhead.to_json r
  in
  let reference = json Pp_vm.Engine.Compiled 1 in
  List.iter
    (fun (engine, jobs) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at jobs %d" (Pp_vm.Engine.kind_name engine) jobs)
        reference (json engine jobs))
    [ (Pp_vm.Engine.Interpreted, 1); (Pp_vm.Engine.Interpreted, 2);
      (Pp_vm.Engine.Compiled, 2) ]

(* {2 Zero-perturbation guard} *)

let test_no_telemetry_byte_identical () =
  let prog = Lazy.force program in
  let profile_with session =
    ignore (Driver.run session);
    Profile_io.to_string (Driver.saved_profile session)
  in
  let plain =
    profile_with
      (Driver.prepare ~max_instructions:50_000_000 ~mode:Instrument.Flow_hw
         prog)
  in
  let tr = Trace.create () in
  let traced =
    profile_with
      (Driver.prepare ~max_instructions:50_000_000 ~mode:Instrument.Flow_hw
         ~telemetry:tr ~telemetry_interval:10_000 prog)
  in
  Alcotest.(check string) "profiles byte-identical under telemetry" plain
    traced;
  Alcotest.(check bool) "the trace did record the session" true
    (Trace.events tr <> [])

(* The one JSON string escaper every exporter shares: quote, backslash
   and newline get short escapes; every other control byte, tab and CR
   included, is written as \u00XX. *)
let test_json_escape () =
  Alcotest.(check string) "escape forms"
    ("\"" ^ {|a\"b\\c\nd\u0009e\u000df\u0001|} ^ "\"")
    (Json.to_string (Json.String "a\"b\\c\nd\te\rf\001"))

(* Every constructor in both layouts.  The compact form is what every
   --json report, trace and serve snapshot prints; the line layout is the
   committed BENCH files'. *)
let test_json_layouts () =
  let row =
    Json.Object
      [
        ("null", Json.Null);
        ("bool", Json.Bool false);
        ("int", Json.Int (-7));
        ("fixed", Json.Fixed (4, 2.0 /. 3.0));
        ("sig", Json.Sig (6, 1234567.0));
        ("string", Json.String "a \"b\"");
        ("list", Json.List [ Json.Int 1; Json.List [] ]);
        ("seq", Json.Seq (List.to_seq [ Json.Bool true; Json.Object [] ]));
      ]
  in
  Alcotest.(check string) "compact"
    ({|{"null":null,"bool":false,"int":-7,"fixed":0.6667,|}
   ^ {|"sig":1.23457e+06,"string":"a \"b\"","list":[1,[]],|}
   ^ {|"seq":[true,{}]}|})
    (Json.to_string row);
  Alcotest.(check string) "lines"
    ("[\n"
   ^ {|  {"null": null, "bool": false, "int": -7, "fixed": 0.6667, |}
   ^ {|"sig": 1.23457e+06, "string": "a \"b\"", "list": [1, []], |}
   ^ {|"seq": [true, {}]},|} ^ "\n"
   ^ {|  {"k": 0.500}|} ^ "\n]\n")
    (Json.to_lines [ row; Json.Object [ ("k", Json.Fixed (3, 0.5)) ] ]);
  Alcotest.(check string) "lines, no rows" "[\n]\n" (Json.to_lines [])

(* A Chrome export pinned byte for byte: escaped names, a multi-value
   counter with a negative value, a sub-microsecond timestamp, a nested
   span and an outer span closed synthetically at export. *)
let test_chrome_golden () =
  let times = ref [ 10.0; 10.0000015; 10.25; 10.2500004; 11.0; 12.5 ] in
  let clock () =
    match !times with
    | t :: rest ->
        times := rest;
        t
    | [] -> 13.0
  in
  let tr = Trace.create ~clock () in
  let j =
    Trace.with_span tr "outer \"q\"" (fun () ->
        Trace.counter tr "vm\tstats" [ ("cycles", 42); ("dmiss\n", -3) ];
        Trace.instant tr "trap\\1";
        Trace.with_span tr "inner" ignore;
        Trace.to_chrome_json tr)
  in
  Alcotest.(check string) "chrome export"
    ({|{"traceEvents":[|}
   ^ {|{"name":"outer \"q\"","cat":"pp","ph":"B","ts":1.500,"pid":1,"tid":1},|}
   ^ {|{"name":"vm\u0009stats","cat":"pp","ph":"C","ts":250000.000,"pid":1,"tid":1,"args":{"cycles":42,"dmiss\n":-3}},|}
   ^ {|{"name":"trap\\1","cat":"pp","ph":"i","ts":250000.400,"pid":1,"tid":1,"s":"t"},|}
   ^ {|{"name":"inner","cat":"pp","ph":"B","ts":1000000.000,"pid":1,"tid":1},|}
   ^ {|{"name":"inner","cat":"pp","ph":"E","ts":2500000.000,"pid":1,"tid":1},|}
   ^ {|{"name":"outer \"q\"","cat":"pp","ph":"E","ts":2500000.000,"pid":1,"tid":1}|}
   ^ {|],"displayTimeUnit":"ms"}|})
    j

let suite =
  [
    Alcotest.test_case "spans nest and balance" `Quick test_span_nesting;
    Alcotest.test_case "with_span closes on raise" `Quick
      test_span_end_on_raise;
    Alcotest.test_case "null sink records nothing" `Quick
      test_null_records_nothing;
    Alcotest.test_case "deterministic exports (fake clock)" `Quick
      test_trace_golden;
    Alcotest.test_case "json_escape forms" `Quick test_json_escape;
    Alcotest.test_case "json: every constructor, both layouts" `Quick
      test_json_layouts;
    Alcotest.test_case "chrome export golden (fixed clock)" `Quick
      test_chrome_golden;
    Alcotest.test_case "ring truncation repaired" `Quick
      test_truncation_repair;
    QCheck_alcotest.to_alcotest prop_spans_balanced;
    QCheck_alcotest.to_alcotest prop_merge_commutes;
    QCheck_alcotest.to_alcotest prop_merge_assoc;
    QCheck_alcotest.to_alcotest prop_merge_identity;
    QCheck_alcotest.to_alcotest prop_diff_merge_roundtrip;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_of;
    Alcotest.test_case "canonical dump golden" `Quick test_dump_golden;
    Alcotest.test_case "absorb agrees with merge" `Quick
      test_absorb_equals_merge;
    Alcotest.test_case "kind mismatch rejected" `Quick
      test_merge_kind_mismatch;
    Alcotest.test_case "oversized pool payload survives partial reads"
      `Quick test_pool_oversized_payload;
    Alcotest.test_case "pool metrics identical at any jobs" `Quick
      test_pool_metrics_jobs_independent;
    Alcotest.test_case "fork inheritance never double-counts" `Quick
      test_pool_metrics_no_double_count;
    QCheck_alcotest.to_alcotest prop_attribution_identities;
    Alcotest.test_case "attribution sums exactly to the delta" `Quick
      test_overhead_exact_attribution;
    Alcotest.test_case "a doctored report fails the check" `Quick
      test_overhead_doctored_report_fails;
    Alcotest.test_case "identities over both thresholds, any engine/jobs"
      `Quick test_overhead_over_thresholds;
    Alcotest.test_case "telemetry does not perturb the profile" `Quick
      test_no_telemetry_byte_identical;
  ]
