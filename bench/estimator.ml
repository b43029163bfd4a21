(* Estimator accuracy: the static probe-execution estimates (`pp cost`)
   against the exact measured probe counts a dynamic run decodes, across
   the SPEC-like workloads.  The per-procedure error column is the
   headline number: it shows how far the Wu–Larus-style heuristics are
   from reality on loop-heavy versus call-heavy programs. *)

module Registry = Pp_workloads.Registry
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Feasibility = Pp_analysis.Feasibility
module Cost = Pp_analysis.Cost

let heading title = Printf.printf "\n==== %s ====\n\n" title

let budget = 400_000_000

let run () =
  heading
    "Estimator accuracy: static probe-cost estimates vs measured (flow-hw)";
  List.iter
    (fun name ->
      let w = Option.get (Registry.find name) in
      let prog = Runs.program_of w in
      let session =
        Driver.prepare ~pruner:Feasibility.pruner ~max_instructions:budget
          ~mode:Instrument.Flow_hw prog
      in
      ignore (Driver.run session);
      let saved = Driver.saved_profile session in
      Printf.printf "  -- %s --\n" name;
      match
        Cost.compute ~mode:Instrument.Flow_hw ~profile:saved prog
      with
      | Ok report ->
          String.split_on_char '\n' (Cost.render report)
          |> List.iter (fun l -> Printf.printf "  %s\n" l)
      | Error d -> Printf.printf "  error: %s\n" (Pp_ir.Diag.to_string d))
    [ "go_like"; "compress_like"; "li_like"; "tomcatv_like" ]
