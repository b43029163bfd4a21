(* The static instrumentation verifier as a gate: every built-in workload,
   instrumented in every mode (and under the placement/PIC option
   variants), must verify with zero diagnostics. *)

module Instrument = Pp_instrument.Instrument
module Verifier = Pp_analysis.Verifier

let option_variants =
  [
    ("default", Instrument.default_options);
    ( "optimized",
      { Instrument.default_options with optimize_placement = true } );
    ("caller-saves", { Instrument.default_options with caller_saves = true });
    ( "backedge-reads",
      { Instrument.default_options with backedge_metric_reads = true } );
    ( "everything",
      {
        Instrument.default_options with
        optimize_placement = true;
        caller_saves = true;
        backedge_metric_reads = true;
      } );
  ]

let check_workload w =
  let prog = Pp_workloads.Workload.compile w in
  List.iter
    (fun (vname, options) ->
      List.iter
        (fun mode ->
          let instrumented, manifest = Instrument.run ~options ~mode prog in
          match
            Verifier.verify_program ~original:prog ~manifest instrumented
          with
          | [] -> ()
          | diags ->
              Alcotest.failf "%s/%s [%s]: %s"
                (Instrument.mode_name mode)
                vname
                w.Pp_workloads.Workload.name
                (String.concat "; "
                   (List.map Pp_ir.Diag.to_string diags)))
        Instrument.all_modes)
    option_variants

let suite =
  List.map
    (fun w ->
      Alcotest.test_case w.Pp_workloads.Workload.name `Slow (fun () ->
          check_workload w))
    Pp_workloads.Registry.all
