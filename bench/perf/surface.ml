(* The benchmark's whole dependency on the libraries.  Every library
   function the benchmark calls is called in this file and nowhere else,
   so a change to one of these signatures migrates this file only; the
   README lists them.

   A call that enters a layer is bracketed by a span named after that
   layer on the sink [tr], and the work it did is recorded as a counter
   beside it.  Untraced runs pass [Trace.null], on which a span is one
   branch and no counter is built.  [Driver.prepare] gets the same sink,
   so [Driver]'s own [instrument]/[vm.setup]/[execute]/[extract.profile]
   spans nest inside the benchmark's. *)

module Trace = Pp_telemetry.Trace
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Engine = Pp_vm.Engine
module Runtime = Pp_vm.Runtime
module Profile_io = Pp_core.Profile_io
module Wire = Pp_core.Profile_wire
module Cct = Pp_core.Cct
module Cct_io = Pp_core.Cct_io
module Ball_larus = Pp_core.Ball_larus
module Predict = Pp_analysis.Predict
module Predict_run = Pp_run.Predict_run
module Matrix = Pp_run.Matrix
module Serve = Pp_run.Serve
module Program = Pp_ir.Program

(* Called before every call into a layer: the runner's chance to time its
   host-speed calibration inside long items ({!Calibrate}). *)
let boundary = ref ignore

let span tr name f =
  !boundary ();
  Trace.with_span tr name f

let calibration tr f = Trace.with_span tr "bench.calibrate" f

let count tr name values =
  if Trace.enabled tr then Trace.counter tr name (values ())

(* {2 The trace sink} *)

let sink ~clock ~capacity = Trace.create ~clock ~capacity ()
let untraced = Trace.null
let trace_events = Trace.events
let trace_dropped = Trace.dropped
let chrome_json = Trace.to_chrome_json

(* {2 Programs} *)

let program_names () = Pp_workloads.Registry.names ()

let compile tr name =
  match Pp_workloads.Registry.find name with
  | None -> invalid_arg ("unknown program " ^ name)
  | Some w -> span tr "minic" (fun () -> Pp_workloads.Workload.compile w)

let program_hash = Profile_io.program_hash
let ir_text = Pp_ir.Ir_text.to_string
let diag_text = Pp_ir.Diag.to_string

(* {2 Instrumentation and feasibility} *)

let modes =
  Instrument.[ Edge_freq; Flow_freq; Flow_hw; Context_hw; Context_flow ]

let mode_name = Instrument.mode_name

let pruner tr : Instrument.pruner =
 fun cfg bl ->
  span tr "feasibility" (fun () ->
      let pruned = Pp_analysis.Feasibility.pruner cfg bl in
      count tr "feasibility" (fun () ->
          let paths = Ball_larus.num_paths bl in
          [
            ("paths", paths);
            ( "feasible",
              match pruned with
              | Some p -> Ball_larus.num_feasible p
              | None -> paths );
          ]);
      pruned)

let growth tr ~original instrumented =
  count tr "instrument" (fun () ->
      [
        ("original", Program.size_slots original);
        ("instrumented", Program.size_slots instrumented);
      ])

let instrument tr ?pruner ~mode prog =
  let ((instrumented, _) as r) =
    span tr "instrument" (fun () -> Instrument.run ?pruner ~mode prog)
  in
  growth tr ~original:prog instrumented;
  r

(* {2 Execution and extraction} *)

let grid_configs = Matrix.all_configs
let config_name = Matrix.config_name

(* The instruction budget of [pp bench], [pp prove] and [pp optimize]. *)
let budget = Matrix.default_budget

(* The two PIC readings of a run under the default selection. *)
let pics (r : Interp.result) =
  let get e = Option.value ~default:0 (List.assoc_opt e r.Interp.counters) in
  (get Pp_machine.Event.Dcache_misses, get Pp_machine.Event.Instructions)

let prepare tr ?engine ?pruner ?sampling ~budget ~mode prog =
  let s =
    Driver.prepare ~telemetry:tr ?engine ?pruner ?sampling
      ~max_instructions:budget ~mode prog
  in
  growth tr ~original:prog s.Driver.instrumented;
  s

let sampling ~duty ~seed = Pp_vm.Sampling.create ~duty ~seed ()

(* One execution, spanned as [execute.<config>/<program>] so per-config
   throughput and per-program overhead can be read off the trace.  A
   trap is a value here; the budget trap counts as [budget]
   instructions. *)
let execute tr ~config ~program ~budget f =
  span tr (Printf.sprintf "execute.%s/%s" config program) (fun () ->
      let r = match f () with r -> Ok r | exception Interp.Trap m -> Error m in
      count tr ("execute." ^ config) (fun () ->
          [
            ( "instructions",
              match r with Ok r -> r.Interp.instructions | Error _ -> budget );
          ]);
      r)

let run tr ~program ~budget s =
  execute tr
    ~config:(mode_name s.Driver.manifest.Instrument.mode)
    ~program ~budget
    (fun () -> Driver.run s)

let run_baseline tr ?engine ~program ~budget prog =
  execute tr ~config:"base" ~program ~budget (fun () ->
      Driver.run_baseline ?engine ~max_instructions:budget prog)

let path_profile = Driver.path_profile
let coverage = Driver.coverage
let cct tr s = span tr "extract" (fun () -> Driver.cct s)
let edge_profile tr s = span tr "extract" (fun () -> Driver.edge_profile s)

let saved_of_profile tr ?coverage ~program_hash ~mode profile =
  span tr "extract" (fun () ->
      Profile_io.of_profile ?coverage ~program_hash ~mode:(mode_name mode)
        profile)

(* {2 Codecs, merge and the aggregator} *)

let shard_text = Profile_io.to_string

(* The runtime CCT serialised with its metric payload, as [pp profile
   --cct-out] writes it; the reader side is [Cct_io.metrics_codec]. *)
let record_codec : Runtime.record_data Cct_io.codec =
  {
    Cct_io.encode =
      (fun d -> Cct_io.metrics_codec.Cct_io.encode d.Runtime.metrics);
    decode = (fun _ -> invalid_arg "record_codec: write-only");
  }

let cct_text cct = Cct_io.to_string ~codec:record_codec cct
let metrics_cct_text cct = Cct_io.to_string ~codec:Cct_io.metrics_codec cct

let metrics_cct cct =
  Cct_io.of_string ~codec:Cct_io.metrics_codec (cct_text cct)

let total_bytes = List.fold_left (fun acc s -> acc + String.length s) 0

let encoder tr name f xs =
  span tr name (fun () ->
      let out = List.map f xs in
      count tr name (fun () -> [ ("bytes", total_bytes out) ]);
      out)

let decoder tr name f texts =
  span tr name (fun () ->
      let out = List.map f texts in
      count tr name (fun () -> [ ("bytes", total_bytes texts) ]);
      out)

let encode_text tr = encoder tr "codec.text.encode" Profile_io.to_string
let decode_text tr = decoder tr "codec.text.decode" Profile_io.salvage_string
let encode_wire tr = encoder tr "codec.wire.encode" Wire.encode_saved

let encode_cct tr =
  encoder tr "codec.cct.encode" (Cct_io.to_string ~codec:Cct_io.metrics_codec)

let decode_cct tr =
  decoder tr "codec.cct.decode" (Cct_io.of_string ~codec:Cct_io.metrics_codec)

(* Feed one stream to a wire reader [chunk] bytes at a time, pulling
   frames after every feed as the aggregator does off a socket. *)
let read_wire ~chunk bytes =
  let r = Wire.reader () in
  let header = ref None and procs = ref [] and ended = ref false in
  let error = ref None in
  let rec pump () =
    match Wire.next r with
    | `Need_more -> ()
    | `Corrupt msg -> error := Some msg
    | `Frame (Wire.Hello h) ->
        header := Some h;
        pump ()
    | `Frame (Wire.Proc p) ->
        procs := p :: !procs;
        pump ()
    | `Frame (Wire.End _) -> ended := true
  in
  let n = String.length bytes in
  let pos = ref 0 in
  while !pos < n && !error = None && not !ended do
    let len = min chunk (n - !pos) in
    Wire.feed r (String.sub bytes !pos len);
    pos := !pos + len;
    pump ()
  done;
  let frames =
    List.length !procs
    + (if !header = None then 0 else 1)
    + if !ended then 1 else 0
  in
  match (!error, !header, !ended) with
  | Some msg, _, _ -> (Error msg, frames)
  | None, None, _ -> (Error "no hello frame", frames)
  | None, Some _, false -> (Error "stream ended before its end frame", frames)
  | None, Some h, true -> (Ok (Wire.saved_of_frames h (List.rev !procs)), frames)

let decode_wire tr streams =
  span tr "codec.wire.decode" (fun () ->
      let out = List.map (fun (bytes, chunk) -> read_wire ~chunk bytes) streams in
      count tr "codec.wire.decode" (fun () ->
          [
            ("bytes", total_bytes (List.map fst streams));
            ("frames", List.fold_left (fun acc (_, f) -> acc + f) 0 out);
          ]);
      List.map fst out)

let records (s : Profile_io.saved) =
  List.fold_left (fun acc (_, _, paths) -> acc + List.length paths) 0
    s.Profile_io.procs

let merge_shards tr groups =
  span tr "merge" (fun () ->
      let out = List.map Profile_io.merge_all groups in
      count tr "merge" (fun () ->
          [
            ( "records",
              List.fold_left
                (List.fold_left (fun acc s -> acc + records s))
                0 groups );
          ]);
      out)

(* Metric arrays summed pointwise, as [pp merge --cct] does. *)
let merge_metrics a b =
  match (a, b) with
  | Some a, Some b -> Array.map2 ( + ) a b
  | Some a, None | None, Some a -> Array.copy a
  | None, None -> [||]

let merge_ccts tr groups =
  span tr "merge.cct" (fun () ->
      List.map
        (function
          | [] -> invalid_arg "merge_ccts: empty group"
          | c :: cs -> List.fold_left (Cct.merge ~merge_data:merge_metrics) c cs)
        groups)

(* One aggregator per group: every shard added, then finished.  Returns
   the result and the aggregator's peak resident record count. *)
let aggregate tr groups =
  span tr "serve.agg" (fun () ->
      let out =
        List.map
          (fun shards ->
            let agg = Serve.agg_create () in
            let errors =
              List.filter_map
                (fun s ->
                  match Serve.agg_add agg s with
                  | Ok () -> None
                  | Error d -> Some (diag_text d))
                shards
            in
            (Serve.agg_finish agg, errors, agg.Serve.peak))
          groups
      in
      count tr "serve.agg" (fun () ->
          [
            ( "peak_records",
              List.fold_left (fun acc (_, _, p) -> max acc p) 0 out );
          ]);
      out)

(* {2 Verification and prediction} *)

let verify tr ~original ~manifest instrumented =
  span tr "verifier.check" (fun () ->
      Pp_analysis.Verifier.verify_program ~original ~manifest instrumented)

let prove tr ~budget ~original ~manifest instrumented =
  span tr "verifier.prove" (fun () ->
      Pp_analysis.Verifier.prove_program ~budget ~original ~manifest
        instrumented)

let array_threshold =
  Instrument.default_options.Instrument.array_threshold

let predictor tr ~original ~instrumented =
  span tr "predict" (fun () -> Predict.create ~original ~instrumented ())

(* Bounds for every feasible path of every procedure whose path table
   [pp predict] would tabulate (at most [array_threshold] paths). *)
let predict_paths tr t =
  span tr "predict" (fun () ->
      let out =
        List.concat_map
          (fun proc ->
            match Predict.numbering t proc with
            | Some bl when Ball_larus.num_paths bl <= array_threshold ->
                let feasible sum =
                  match Predict.feasibility t proc with
                  | Some fs -> Pp_analysis.Feasibility.feasible fs sum
                  | None -> true
                in
                List.filter_map
                  (fun sum ->
                    if feasible sum then
                      Some ((proc, sum), Predict.predict t ~proc ~sum)
                    else None)
                  (List.init (Ball_larus.num_paths bl) Fun.id)
            | _ -> [])
          (Predict.procs t)
      in
      count tr "predict" (fun () -> [ ("paths", List.length out) ]);
      out)

let predict_run tr ~budget ~mode prog =
  span tr "predict_run" (fun () ->
      let o = Predict_run.run ~budget ~mode prog in
      count tr "predict_run" (fun () ->
          [ ("windows", o.Predict_run.windows) ]);
      o)

let predict_exit_code = Predict_run.exit_code
let predict_errors = Predict_run.errors

(* {2 Profile-guided optimization} *)

let summarize tr ~cct prog profile =
  span tr "opt.summary" (fun () -> Pp_opt.Summary.of_paths ~cct prog profile)

let validate tr f = span tr "opt.validate" f

let optimize tr ~validate ~summary prog =
  span tr "opt.pgo" (fun () ->
      let ((_, report) as r) = Pp_opt.Pgo.optimize ~validate ~summary prog in
      count tr "opt.pgo" (fun () ->
          [ ("inlined", List.length report.Pp_opt.Pgo.inlined) ]);
      r)
