open Perf_bench
module Trace = Pp_telemetry.Trace

let close = Alcotest.float 1e-9

(* {2 Order statistics} *)

let test_tail_rule () =
  let names n = List.map snd (Stats.tail_percentiles n) in
  Alcotest.(check (list string)) "99 samples" [] (names 99);
  Alcotest.(check (list string)) "100 samples" [ "p90" ] (names 100);
  Alcotest.(check (list string)) "999 samples" [ "p90" ] (names 999);
  Alcotest.(check (list string)) "1000 samples" [ "p90"; "p99" ] (names 1000);
  Alcotest.(check (list string)) "10000 samples" [ "p90"; "p99"; "p99.9" ] (names 10000)

(* Values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q3 = Stats.quartiles ten in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  Alcotest.check close "median of 1..10" 5.5 (Stats.median ten);
  let q1, q3 = Stats.quartiles [ 2.0; 1.0 ] in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "q3 of two" 2.25 q3;
  Alcotest.check close "p90 of 1..100" 90.9
    (Stats.percentile 90.0 (List.init 100 (fun i -> float_of_int (i + 1))))

(* {2 Self time from nested spans} *)

let test_self_time_synthetic () =
  let ev =
    Trace.
      [
        Begin { name = "bench.item"; ts = 0.0 };
        Begin { name = "minic"; ts = 1.0 };
        End { name = "minic"; ts = 3.0 };
        Counter { name = "execute.base"; ts = 3.5; values = [ ("instructions", 7) ] };
        Begin { name = "execute.base/p"; ts = 4.0 };
        Begin { name = "execute"; ts = 4.5 };
        End { name = "execute"; ts = 5.0 };
        End { name = "execute.base/p"; ts = 6.0 };
        End { name = "bench.item"; ts = 10.0 };
      ]
  in
  let t = Layers.analyze ev in
  Alcotest.check close "wall" 10.0 t.Layers.wall;
  Alcotest.check close "bench self" 6.0 (Layers.self_s t "bench");
  Alcotest.check close "minic self" 2.0 (Layers.self_s t "minic");
  Alcotest.check close "execute self, both spans" 2.0 (Layers.self_s t "execute");
  Alcotest.check close "inclusive" 2.0 (Layers.inclusive t "execute.base/p");
  Alcotest.(check int) "counter" 7 (Layers.counter t "execute.base" "instructions");
  Alcotest.check close "throughput" (7e-6 /. 2.0) (Layers.minst_per_s t "base")

(* [Driver]'s own spans nest inside the benchmark's: every traced
   second lands in exactly one layer. *)
let test_self_time_driver () =
  let ticks = ref 0.0 in
  let clock () =
    ticks := !ticks +. 1.0;
    !ticks
  in
  let tr = Trace.create ~clock () in
  let prog = Surface.compile Surface.untraced "vortex_like" in
  Trace.with_span tr "bench.item" (fun () ->
      let s =
        Surface.prepare tr ~budget:Surface.budget
          ~mode:Pp_instrument.Instrument.Flow_hw prog
      in
      ignore (Surface.run tr ~program:"vortex_like" ~budget:Surface.budget s);
      ignore (Surface.path_profile s));
  let t = Layers.analyze (Trace.events tr) in
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) t.Layers.self 0.0 in
  Alcotest.check close "self times sum to the wall" t.Layers.wall total;
  List.iter
    (fun layer ->
      Alcotest.(check bool) (layer ^ " has time") true (Layers.self_s t layer > 0.0))
    [ "bench"; "instrument"; "vm.setup"; "execute"; "extract" ];
  Alcotest.check close "execute layer = the bench's execute span"
    (Layers.inclusive t "execute.flow-hw/vortex_like")
    (Layers.self_s t "execute");
  Alcotest.(check int) "driver span nested once" 1 (Layers.calls t "execute")

(* {2 compare verdicts} *)

let verdict ?(better = Catalogue.Lower) ?(bound = 0.10) base change =
  Compare.verdict_name (Compare.verdict ~better ~bound base change)

let around m = List.init 10 (fun i -> m *. (1.0 +. (0.001 *. float_of_int (i - 5))))

let test_verdicts () =
  let base = around 100.0 in
  Alcotest.(check string) "same runs" "unchanged" (verdict base base);
  Alcotest.(check string) "5% faster, 10/10 pairs" "improved" (verdict base (around 95.0));
  Alcotest.(check string) "higher is better" "worse"
    (verdict ~better:Catalogue.Higher base (around 85.0));
  Alcotest.(check string) "20% slower" "worse" (verdict base (around 120.0));
  Alcotest.(check string) "5% slower is within the bound" "unchanged"
    (verdict base (around 105.0));
  Alcotest.(check string) "faster on fewer than ten pairs" "unchanged"
    (verdict (List.filteri (fun i _ -> i < 5) base)
       (List.filteri (fun i _ -> i < 5) (around 95.0)));
  let wide = List.init 10 (fun i -> 60.0 +. (10.0 *. float_of_int i)) in
  Alcotest.(check string) "spread wider than the bound" "unresolved" (verdict wide wide);
  Alcotest.(check string) "wide but every change run better" "improved"
    (verdict wide (List.map (fun x -> x -. 100.0) wide));
  let zeros = List.init 10 (fun _ -> 0.0) in
  Alcotest.(check string) "any rise in failures" "worse"
    (verdict ~bound:0.0 zeros (List.init 10 (fun _ -> 0.01)));
  Alcotest.(check string) "no failures either side" "unchanged"
    (verdict ~bound:0.0 zeros zeros)

(* {2 The catalogue matches BENCHMARK.json} *)

let test_benchmark_json () =
  let j = Json.read_file "../../BENCHMARK.json" in
  let gated l = List.filter (fun (m : Catalogue.metric) -> m.Catalogue.gated) l in
  let listed key =
    List.map
      (fun e ->
        ( Json.to_str (Json.member "name" e),
          Json.to_str (Json.member "unit" e),
          Json.to_str (Json.member "better" e),
          match Json.member "bound" e with Json.Num b -> b | _ -> 0.0 ))
      (Json.to_list (Json.member key j))
  in
  let ours ~bound l =
    List.map
      (fun (m : Catalogue.metric) ->
        ( m.Catalogue.name,
          m.Catalogue.unit,
          Catalogue.better_name m.Catalogue.better,
          if bound then m.Catalogue.bound else 0.0 ))
      (gated l)
  in
  let row = Alcotest.(list (pair string (pair string (pair string (float 0.0))))) in
  let flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  Alcotest.check row "end_to_end" (flat (ours ~bound:true Catalogue.end_to_end))
    (flat (listed "end_to_end"));
  Alcotest.check row "per_layer" (flat (ours ~bound:false Catalogue.per_layer))
    (flat (listed "per_layer"));
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Workloads.t) -> (w.Workloads.name, w.Workloads.why)) Workloads.all)
    (List.map
       (fun e -> (Json.to_str (Json.member "name" e), Json.to_str (Json.member "why" e)))
       (Json.to_list (Json.member "workloads" j)));
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " is catalogued") true (Catalogue.find name <> None))
    (Layers.metrics (Layers.analyze []))

(* {2 One-program smoke runs} *)

let expected = lazy (Expected.load "expected")

let smoke ?trace_file ?(expected = Lazy.force expected) name =
  let w = { (Option.get (Workloads.find name)) with Workloads.passes = 1 } in
  Runner.run ~programs:[ "vortex_like" ] w ~seed:1 ~seconds:0.0 ~expected ~trace_file

let test_smoke name () =
  let r = smoke name in
  Alcotest.(check (list string)) "no failures" [] r.Runner.failures;
  Alcotest.(check bool) "items ran" true (r.Runner.attempted > 0);
  (* The summary line names every gated metric or raises. *)
  ignore (Runner.summary_line r)

let test_traced_smoke () =
  let r = smoke ~trace_file:"smoke.trace.json" "ingest" in
  Alcotest.(check (list string)) "no failures" [] r.Runner.failures;
  let value name =
    (List.find (fun m -> m.Runner.name = name) r.Runner.metrics).Runner.value
  in
  Alcotest.check close "nothing dropped" 0.0 (value "trace.dropped");
  Alcotest.(check bool) "codec time seen" true (value "codec.wire.share" > 0.0);
  ignore (Runner.summary_line r)

let tampered key =
  let t = Hashtbl.copy (Lazy.force expected) in
  Hashtbl.replace t key "0 0 0 0 0";
  t

let test_tampered name key () =
  let r = smoke ~expected:(tampered key) name in
  Alcotest.(check int) "one item failed" 1 r.Runner.failed;
  Alcotest.(check bool) "others still ran" true (r.Runner.attempted >= 1)

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
        ] );
      ( "layers",
        [
          Alcotest.test_case "self time, synthetic" `Quick test_self_time_synthetic;
          Alcotest.test_case "self time, driver spans" `Quick test_self_time_driver;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w `Quick (test_smoke w))
          [ "grid"; "static"; "ingest"; "optimize" ]
        @ [
            Alcotest.test_case "ingest traced" `Quick test_traced_smoke;
            Alcotest.test_case "grid tampered digest" `Quick
              (test_tampered "grid" "grid/vortex_like/flow-hw");
            Alcotest.test_case "optimize tampered digest" `Quick
              (test_tampered "optimize" "optimize/vortex_like");
          ] );
    ]
