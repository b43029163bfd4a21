(* bench serve: the sampled-profiling accuracy-vs-overhead frontier.

   Every workload runs exhaustively and at a ladder of duty cycles;
   each sampled shard is rescaled by its coverage certificate and
   compared against the exhaustive profile:

     - overhead %: instrumented instruction count over the
       uninstrumented baseline (gated commits skip their simulated
       fetch/load/store charges, so overhead falls with duty);
     - hot-path rank correlation (Spearman, over the exhaustive
       profile's executed paths);
     - relative frequency error of the rescaled profile;
     - aggregator peak residency for the shard ({!Pp_run.Serve.agg}).

   Writes BENCH_serve.json.  Two floors gate the target: duty 1.0 must
   reproduce the exhaustive shard byte-identically (zero error, perfect
   correlation), and duty >= 0.5 must keep rank correlation above 0.5 on
   workloads that ran to completion.  PP_SERVE_WORKLOADS (comma-
   separated names) restricts the sweep — CI uses a subset. *)

module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Sampling = Pp_vm.Sampling
module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Sv = Pp_run.Serve
module Json = Pp_telemetry.Json

let budget = Pp_run.Matrix.default_budget
let duties = [ 0.125; 0.25; 0.5; 1.0 ]
let mode = Instrument.Flow_hw
let corr_floor = 0.5

(* The exhaustive reference must use the sampled sessions' options or
   the comparison confounds sampling with commit layout. *)
let zero_opts = Driver.sampled_options None

let selected_workloads () =
  match Sys.getenv_opt "PP_SERVE_WORKLOADS" with
  | None | Some "" -> Registry.all
  | Some names ->
      let wanted = String.split_on_char ',' names in
      List.filter (fun (w : W.t) -> List.mem w.W.name wanted) Registry.all

let run_session ?sampling prog =
  let session =
    Driver.prepare ~options:zero_opts ~max_instructions:budget ?sampling
      ~mode prog
  in
  let trapped, instructions =
    match Driver.run session with
    | r -> (false, r.Interp.instructions)
    | exception Interp.Trap _ -> (true, budget)
  in
  (Driver.saved_profile session, instructions, trapped)

let baseline_instructions prog =
  match Driver.run_baseline ~max_instructions:budget prog with
  | r -> r.Interp.instructions
  | exception Interp.Trap _ -> budget

(* Frequencies rescaled by the shard's coverage certificate, keyed by
   (procedure, path sum). *)
let scaled_freqs (s : Profile_io.saved) =
  List.concat_map
    (fun (proc, _, paths) ->
      let scale =
        match List.assoc_opt proc s.Profile_io.coverage with
        | Some (sampled, total) -> Sampling.scale ~sampled ~total
        | None -> 1.0
      in
      List.map
        (fun (sum, (m : Profile.path_metrics)) ->
          ((proc, sum), float_of_int m.Profile.freq *. scale))
        paths)
    s.Profile_io.procs

let freq_at table key = match List.assoc_opt key table with
  | Some v -> v
  | None -> 0.0

(* Spearman rank correlation over the exhaustive profile's keys (absent
   sampled paths rank by zero frequency).  Ties break by key, so the
   statistic is deterministic. *)
let spearman ~keys xs ys =
  let n = List.length keys in
  if n <= 1 then 1.0
  else begin
    let ranks table =
      let sorted =
        List.sort
          (fun ka kb ->
            match compare (freq_at table kb) (freq_at table ka) with
            | 0 -> compare ka kb
            | c -> c)
          keys
      in
      List.mapi (fun i k -> (k, float_of_int i)) sorted
    in
    let rx = ranks xs and ry = ranks ys in
    let d2 =
      List.fold_left
        (fun acc k ->
          let d = List.assoc k rx -. List.assoc k ry in
          acc +. (d *. d))
        0.0 keys
    in
    1.0 -. (6.0 *. d2 /. float_of_int (n * ((n * n) - 1)))
  end

let relative_error ~keys exact approx =
  let num, den =
    List.fold_left
      (fun (num, den) k ->
        let e = freq_at exact k in
        (num +. Float.abs (freq_at approx k -. e), den +. e))
      (0.0, 0.0) keys
  in
  if den = 0.0 then 0.0 else num /. den

let run () =
  print_endline "== serve: sampled accuracy vs overhead frontier ==";
  Printf.printf "%-15s %6s %10s %8s %8s %8s %s\n" "workload" "duty"
    "overhead%" "rankcorr" "relerr" "peak" "";
  let rows = ref [] in
  let violations = ref [] in
  List.iter
    (fun (w : W.t) ->
      let prog = W.compile w in
      let base = baseline_instructions prog in
      let exact_shard, _, exact_trapped = run_session prog in
      let exact = scaled_freqs exact_shard in
      let keys = List.map fst exact in
      List.iter
        (fun duty ->
          let sampling = Sampling.create ~duty ~seed:42 () in
          let shard, instrs, trapped = run_session ~sampling prog in
          let approx = scaled_freqs shard in
          let overhead =
            if base = 0 then 0.0
            else float_of_int (instrs - base) /. float_of_int base *. 100.0
          in
          let corr = spearman ~keys exact approx in
          let err = relative_error ~keys exact approx in
          let agg = Sv.agg_create () in
          ignore (Sv.agg_add agg shard);
          let peak = agg.Sv.peak in
          let note =
            if trapped || exact_trapped then "(budget trap)" else ""
          in
          Printf.printf "%-15s %6.3f %10.2f %8.4f %8.4f %8d %s\n" w.W.name
            duty overhead corr err peak note;
          (* Floors.  Duty 1.0 gates nothing, so its shard must be
             byte-identical to the exhaustive one — stronger than zero
             error, and it holds even across a budget trap. *)
          if duty = 1.0 then begin
            if
              Profile_io.to_string shard
              <> Profile_io.to_string exact_shard
            then
              violations :=
                Printf.sprintf "%s: duty 1.0 shard differs from exhaustive"
                  w.W.name
                :: !violations
          end
          else if
            duty >= 0.5 && (not trapped) && not exact_trapped
            && corr < corr_floor
          then
            violations :=
              Printf.sprintf
                "%s: rank correlation %.4f below floor %.2f at duty %.3f"
                w.W.name corr corr_floor duty
              :: !violations;
          rows :=
            Json.
              (Object
                 [ ("workload", String w.W.name); ("duty", Fixed (3, duty));
                   ("baseline", Int base); ("instrumented", Int instrs);
                   ("overhead_pct", Fixed (4, overhead));
                   ("rank_correlation", Fixed (4, corr));
                   ("relative_error", Fixed (4, err));
                   ("peak_records", Int peak);
                   ("paths", Int (List.length approx));
                   ("trapped", Bool trapped) ])
            :: !rows)
        duties)
    (selected_workloads ());
  Pp_core.Crc32.write_atomic "BENCH_serve.json"
    (Json.to_lines (List.rev !rows));
  Printf.printf "wrote BENCH_serve.json\n";
  match !violations with
  | [] -> ()
  | vs ->
      List.iter (fun v -> Printf.printf "  !! %s\n" v) vs;
      failwith
        (Printf.sprintf "%d frontier floor violation(s)" (List.length vs))
