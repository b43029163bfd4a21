(* The PGO payoff experiment: compile each workload unoptimized, profile
   it (per-path hardware metrics + calling context tree), recompile with
   the profile-guided optimizer, and re-measure on the same simulated
   machine.  Run twice per workload — once driven by the full
   context-sensitive summary, once by a flat edge profile (the gprof
   ablation) — and write BENCH_pgo.json.

   Floors (CI fails on regression):
   - mean CCT-driven cycle reduction stays positive;
   - no workload's CCT-optimized cycles exceed baseline by > 0.5%;
   - the CCT summary beats the flat one on at least one workload
     (context sensitivity must be worth something);
   - every optimized program reproduces the baseline output exactly. *)

module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Interp = Pp_vm.Interp
module Event = Pp_machine.Event
module Report = Pp_core.Report
module Pgo = Pp_opt.Pgo
module Pipeline = Pp_run.Pipeline

let budget = 400_000_000

(* A workload may regress by at most this factor before the floor trips:
   layout is heuristic, so tiny I-cache noise is tolerated, real
   regressions are not. *)
let regression_ceiling = 1.005

let counter e (r : Interp.result) =
  Option.value ~default:0 (List.assoc_opt e r.Interp.counters)

type row = {
  name : string;
  cycles_base : int;
  cycles_cct : int;
  cycles_flat : int;
  dmiss_base : int;
  dmiss_cct : int;
  inlined_cct : int;
}

let pct base v =
  100.0 *. float_of_int (base - v) /. float_of_int (max 1 base)

let measure_workload (w : W.t) =
  let prog = W.compile w in
  let ok what = function
    | Ok x -> x
    | Error msg ->
        failwith (Printf.sprintf "pgo: %s (%s): %s" w.W.name what msg)
  in
  (* One baseline run serves both sources: it is the output guard of
     data placement (see Pgo.optimize) and the reference cycles. *)
  let base = ok "baseline" (Pipeline.run_baseline ~budget prog) in
  let optimized source =
    let what = match source with `Cct -> "cct" | `Flat -> "flat" in
    let summary = ok what (Pipeline.summarize ~budget ~source prog) in
    let o = Pipeline.optimize ~budget ~base ~summary prog in
    (ok what o.Pipeline.after, o.Pipeline.report)
  in
  let cct, report = optimized `Cct in
  let flat, _ = optimized `Flat in
  {
    name = w.W.name;
    cycles_base = base.Interp.cycles;
    cycles_cct = cct.Interp.cycles;
    cycles_flat = flat.Interp.cycles;
    dmiss_base = counter Event.Dcache_misses base;
    dmiss_cct = counter Event.Dcache_misses cct;
    inlined_cct = List.length report.Pgo.inlined;
  }

let run () =
  print_endline
    "== pgo: profile-guided optimization payoff (cycles, lower is \
     better) ==";
  let rows = List.map measure_workload Registry.all in
  let table =
    List.map
      (fun r ->
        `Row
          [
            r.name;
            string_of_int r.cycles_base;
            string_of_int r.cycles_cct;
            Printf.sprintf "%+.2f%%" (-.pct r.cycles_base r.cycles_cct);
            string_of_int r.cycles_flat;
            Printf.sprintf "%+.2f%%" (-.pct r.cycles_base r.cycles_flat);
            string_of_int r.inlined_cct;
          ])
      rows
  in
  print_string
    (Report.render
       ~columns:
         [
           ("Workload", Report.Left);
           ("Base cyc", Report.Right);
           ("CCT cyc", Report.Right);
           ("CCT", Report.Right);
           ("Flat cyc", Report.Right);
           ("Flat", Report.Right);
           ("Inl", Report.Right);
         ]
       ~rows:table);
  let json = Buffer.create 2048 in
  Buffer.add_string json "[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string json ",";
      Buffer.add_string json
        (Printf.sprintf
           "\n  {\"workload\": %S, \"cycles_base\": %d, \"cycles_cct\": \
            %d, \"cycles_flat\": %d, \"dmiss_base\": %d, \"dmiss_cct\": \
            %d, \"inlined_cct\": %d, \"reduction_cct_pct\": %.4f, \
            \"reduction_flat_pct\": %.4f}"
           r.name r.cycles_base r.cycles_cct r.cycles_flat r.dmiss_base
           r.dmiss_cct r.inlined_cct
           (pct r.cycles_base r.cycles_cct)
           (pct r.cycles_base r.cycles_flat)))
    rows;
  Buffer.add_string json "\n]\n";
  let oc = open_out "BENCH_pgo.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  let mean =
    List.fold_left (fun a r -> a +. pct r.cycles_base r.cycles_cct) 0.0 rows
    /. float_of_int (List.length rows)
  in
  let wins =
    List.length (List.filter (fun r -> r.cycles_cct < r.cycles_flat) rows)
  in
  Printf.printf
    "wrote BENCH_pgo.json (%d workloads; mean CCT reduction %.2f%%; CCT \
     beats flat on %d)\n"
    (List.length rows) mean wins;
  (* Floors. *)
  if mean <= 0.0 then
    failwith (Printf.sprintf "pgo: mean CCT cycle reduction %.4f%% <= 0" mean);
  List.iter
    (fun r ->
      if
        float_of_int r.cycles_cct
        > float_of_int r.cycles_base *. regression_ceiling
      then
        failwith
          (Printf.sprintf "pgo: %s regressed: %d -> %d cycles" r.name
             r.cycles_base r.cycles_cct))
    rows;
  if wins = 0 then
    failwith "pgo: the CCT summary never beat the flat edge profile"
