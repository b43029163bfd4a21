(* pp predict certification sweep: every workload under every
   instrumentation mode, measured counters checked against the static
   per-path bounds.  Renders a per-workload verdict table and writes
   BENCH_predict.json for the benchmark archive.  Any refuted row or
   oracle anomaly is a soundness bug, so the target fails loudly. *)

module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Instrument = Pp_instrument.Instrument
module Predict_run = Pp_run.Predict_run

let budget = 300_000

let run () =
  print_endline
    "== predict: static per-path bounds vs measured counters ==";
  Printf.printf "%-15s %-13s %6s %8s %6s %6s %6s %10s\n" "workload" "mode"
    "paths" "windows" "conf" "vac" "ref" "mean-slack";
  let json = Buffer.create 4096 in
  Buffer.add_string json "[";
  let first = ref true in
  let unsound = ref 0 in
  List.iter
    (fun (w : W.t) ->
      let prog = W.compile w in
      List.iter
        (fun mode ->
          let t0 = Sys.time () in
          let o = Predict_run.run ~budget ~mode prog in
          let seconds = Sys.time () -. t0 in
          if o.refuted > 0 || o.anomalies <> [] then begin
            incr unsound;
            List.iter
              (fun e -> Printf.printf "  !! %s\n" e)
              (Predict_run.errors o)
          end;
          Printf.printf "%-15s %-13s %6d %8d %6d %6d %6d %10.2f\n" w.W.name
            (Instrument.mode_name o.mode)
            (List.length o.rows) o.windows o.confirmed o.vacuous o.refuted
            o.mean_slack;
          if not !first then Buffer.add_string json ",";
          first := false;
          Buffer.add_string json
            (Printf.sprintf
               "\n\
               \  {\"workload\": %S, \"mode\": %S, \"paths\": %d, \
                \"windows\": %d, \"confirmed\": %d, \"vacuous\": %d, \
                \"refuted\": %d, \"anomalies\": %d, \"mean_slack\": %.4f, \
                \"trapped\": %b, \"seconds\": %.3f}"
               w.W.name
               (Instrument.mode_name o.mode)
               (List.length o.rows) o.windows o.confirmed o.vacuous o.refuted
               (List.length o.anomalies) o.mean_slack o.trapped seconds))
        Instrument.all_modes)
    Registry.all;
  Buffer.add_string json "\n]\n";
  let oc = open_out "BENCH_predict.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "wrote BENCH_predict.json\n";
  if !unsound > 0 then failwith (Printf.sprintf "%d unsound cells" !unsound)
