(* pp — the command-line face of the profiler, loosely the role the PP tool
   played in the paper: compile (MiniC instead of editing SPARC binaries),
   instrument, execute on the simulated UltraSPARC, and report.

     pp run program.mc
     pp run --workload gcc_like --shards 4 --jobs 4
     pp profile program.mc --mode flow-hw --top 10
     pp profile --workload compress_like --mode context-flow
     pp bench --jobs 8
     pp merge -o whole.pprof shard0.pprof shard1.pprof
     pp paths program.mc
     pp workloads                                                          *)

open Cmdliner
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Event = Pp_machine.Event
module Profile = Pp_core.Profile
module Hotpath = Pp_core.Hotpath
module Ball_larus = Pp_core.Ball_larus
module Cct = Pp_core.Cct
module Cct_stats = Pp_core.Cct_stats
module Runtime = Pp_vm.Runtime
module Registry = Pp_workloads.Registry
module Cct_io = Pp_core.Cct_io
module Crc32 = Pp_core.Crc32
module Profile_io = Pp_core.Profile_io
module Engine = Pp_vm.Engine
module Matrix = Pp_run.Matrix
module Checkpoint = Pp_run.Checkpoint
module Chaos = Pp_run.Chaos
module Faults = Pp_run.Faults
module Serve = Pp_run.Serve
module Diag = Pp_ir.Diag
module Trace = Pp_telemetry.Trace
module Metrics = Pp_telemetry.Metrics
module Json = Pp_telemetry.Json
module Overhead = Pp_run.Overhead
module Predict_run = Pp_run.Predict_run
module Pipeline = Pp_run.Pipeline

let print_output (r : Interp.result) =
  List.iter
    (function
      | Interp.Oint n -> Printf.printf "%d\n" n
      | Interp.Ofloat x -> Printf.printf "%.6g\n" x)
    r.Interp.output

let print_counters title counters =
  Printf.printf "\n-- %s --\n" title;
  List.iter
    (fun (e, v) -> Printf.printf "%-18s %12d\n" (Event.name e) v)
    counters

(* --- errors and exits ---

   Every action returns its exit status; {!command} runs it.  Operational
   failures exit 1; invalid arguments and structured diagnostics exit 2
   (cmdliner reserves 124/125); a degraded run — completed, but with
   partial coverage (some shards quarantined, salvaged or lost) — exits 3,
   so CI can gate on it. *)

(* A command's failure: its exit status and the message after "pp: ". *)
exception Quit of int * string

let exit_err msg = raise (Quit (1, msg))
let exit_invalid d = raise (Quit (2, Diag.to_string d))
let exit_degraded = 3
let ok_or_exit = function Ok x -> x | Error msg -> exit_err msg
let load ~file ~workload = ok_or_exit (Pipeline.load ~file ~workload)

(* What a report calls its input, once [load] has accepted it. *)
let input_name ~file ~workload =
  Option.value file ~default:(Option.value workload ~default:"")

let cli_error fmt = Diag.error (Diag.proc_loc "<cli>") fmt

let load_profile path =
  try Profile_io.of_file path with
  | Profile_io.Parse_error (line, msg) ->
      exit_err (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error msg -> exit_err msg

(* --- validated flags ---

   A validated flag checks its value as its term is evaluated, and the
   first failure waits in [invalid] until {!command} runs: every argument
   has converted by then.  The first-error order is therefore
     1. cmdliner usage errors (exit 124), whatever their position;
     2. --engine, which every command that has it applies first;
     3. the command's validated flags, in the order its term applies them:
          run       shards, jobs, retries, budget
          chaos     shards, jobs, retries, budget, timeout
          bench     jobs, budget, timeout
          trace     interval, budget
          overhead  jobs, budget
          profile   budget, top
          optimize  budget, inline-budget
          predict   budget, slack
          prove     budget
          serve     snapshot-every, budget
     4. the checks an action makes because they depend on other flags:
        --duty and --burst (with --mode), serve's --drive, --expect,
        --max-records and --corrupt-after. *)
let invalid = ref None

let validated check t =
  Term.(
    const (fun v ->
        if Option.is_none !invalid then invalid := check v;
        v)
    $ t)

let positive flag v =
  if v > 0 then None else Some (cli_error "--%s must be positive (got %d)" flag v)

let non_negative flag v =
  if v >= 0.0 then None
  else Some (cli_error "--%s must be non-negative (got %g)" flag v)

(* For the checks an action makes itself. *)
let require = Option.iter exit_invalid

let positive_opt ~default names ~docv ~doc =
  validated (positive (List.hd names))
    Arg.(value & opt int default & info names ~docv ~doc)

let non_negative_opt ~default names ~docv ~doc =
  validated (non_negative (List.hd names))
    Arg.(value & opt float default & info names ~docv ~doc)

(* --telemetry FILE: dump the global metrics registry after the command's
   work is done.  The dump is canonical and jobs-independent, so CI can
   diff it across --jobs values. *)
let telemetry_opt =
  Arg.(value & opt (some string) None
       & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Write the canonical metrics dump (counters, gauges, \
                 log-bucketed histograms recorded by this command and its \
                 pool workers) to FILE.")

(* The one entry point of every command.  [body] evaluates to the action;
   an invalid flag is reported before it runs (exit 2, no file written).
   An action that returns — success, a reported failure or a degraded
   verdict — writes the --telemetry dump first; a [Quit] or an escaping
   trap (exit 1) writes none. *)
let command name ~doc body =
  let run action telemetry =
    match !invalid with
    | Some d ->
        Printf.eprintf "pp: %s\n" (Diag.to_string d);
        2
    | None -> (
        match action () with
        | status ->
            Option.iter
              (fun path ->
                Crc32.write_file path
                  (Metrics.dump (Metrics.snapshot Metrics.default)))
              telemetry;
            status
        | exception Quit (status, msg) ->
            Printf.eprintf "pp: %s\n" msg;
            status
        | exception Interp.Trap msg ->
            Printf.eprintf "pp: trap: %s\n" msg;
            1)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ body $ telemetry_opt)

(* --- common options --- *)

let file =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"MiniC source file (.mc) or textual IR (.ppir).")

let workload_opt =
  Arg.(value & opt (some string) None
       & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Profile a built-in SPEC95-analogue workload instead of a \
                 file.")

let budget =
  positive_opt ~default:Matrix.default_budget [ "budget" ] ~docv:"N"
    ~doc:"Maximum simulated instructions before trapping."

(* --engine: parsed by hand instead of Arg.enum so an invalid value exits
   2 through the shared diagnostic path (cmdliner's own parse errors exit
   124). *)
let engine =
  let check s =
    match Engine.kind_of_string s with
    | Some _ -> None
    | None ->
        Some
          (cli_error "--engine must be one of: %s (got %S)"
             (String.concat ", " (List.map Engine.kind_name Engine.kinds))
             s)
  in
  Term.(
    const (fun s ->
        Option.value ~default:Engine.default (Engine.kind_of_string s))
    $ validated check
        Arg.(value & opt string (Engine.kind_name Engine.default)
             & info [ "engine" ] ~docv:"ENGINE"
                 ~doc:"Execution tier: 'compiled' (closure-threaded, the \
                       default) or 'interp' (the per-instruction reference \
                       interpreter).  Both are certified byte-identical — \
                       counters, profiles and output match exactly — so the \
                       choice only affects wall-clock speed."))

let flag names doc = Arg.(value & flag & info names ~doc)

let json_report = flag [ "json" ] "Print the report as one line of JSON."

let jobs_arg ~default doc = positive_opt ~default [ "jobs"; "j" ] ~docv:"N" ~doc

let mode_assoc =
  List.map (fun m -> (Instrument.mode_name m, m)) Instrument.all_modes

let mode_conv = Arg.enum mode_assoc

let mode_arg
    ?(doc = "edge-freq, flow-freq, flow-hw, context-hw or context-flow.") ()
    =
  Arg.(value & opt mode_conv Instrument.Flow_hw
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc)

(* Repeatable --mode, empty when not given. *)
let modes_arg modes doc =
  Arg.(value & opt_all modes [] & info [ "mode"; "m" ] ~docv:"MODE" ~doc)

(* --mode on overhead and predict also takes 'all' (the default). *)
let mode_or_all_conv =
  Arg.enum (("all", `All) :: List.map (fun (n, m) -> (n, `Mode m)) mode_assoc)

let resolve_modes modes =
  if modes = [] || List.mem `All modes then Instrument.all_modes
  else List.filter_map (function `Mode m -> Some m | `All -> None) modes

(* The placement/PIC variants 'pp check' verifies and 'pp prove'
   certifies. *)
let instrument_options ~verb =
  let make optimize_placement caller_saves backedge_metric_reads =
    {
      Instrument.default_options with
      Instrument.optimize_placement;
      caller_saves;
      backedge_metric_reads;
    }
  in
  Term.(
    const make
    $ flag [ "optimize-placement" ]
        (verb ^ " the optimized (spanning-tree chord) placement.")
    $ flag [ "caller-saves" ]
        (verb ^ " the caller-saves PIC discipline (ablation A3).")
    $ flag [ "backedge-metric-reads" ]
        (verb ^ " the backedge metric reads (ablation A4)."))

(* --- pp run --- *)

let run_cmd =
  let doc = "Execute a program uninstrumented and report its counters." in
  let action engine shards jobs retries budget file workload counters
      checkpoint_dir () =
    let prog = load ~file ~workload in
    if shards <= 1 then begin
      let r = Checkpoint.run_once ~engine ~budget prog in
      print_output r;
      Printf.printf "\n%d instructions, %d cycles\n" r.Interp.instructions
        r.Interp.cycles;
      if counters then print_counters "counters" r.Interp.counters;
      0
    end
    else begin
      (* Sharded: the same run in [shards] isolated processes, counters
         summed, resumable from --checkpoint-dir.  The wall-clock summary
         goes to stderr: stdout stays byte-identical fresh vs resumed and
         at any --jobs. *)
      let r =
        Checkpoint.run ?dir:checkpoint_dir ~engine ~budget ~jobs ~retries
          ~shards prog
      in
      if r.Checkpoint.resumed > 0 then
        Printf.eprintf "pp: resumed %d of %d shards from checkpoints\n"
          r.Checkpoint.resumed shards;
      prerr_string r.Checkpoint.footer;
      List.iter
        (fun (k, why) -> Printf.eprintf "pp: shard %d %s\n" k why)
        r.Checkpoint.failed;
      match r.Checkpoint.total with
      | None -> exit_err "all shards failed"
      | Some total ->
          List.iter
            (Printf.eprintf
               "pp: shard %d produced different output (nondeterminism?)\n")
            r.Checkpoint.divergent;
          print_output total;
          Printf.printf "\n%d instructions, %d cycles over %d of %d shards\n"
            total.Interp.instructions total.Interp.cycles
            r.Checkpoint.completed shards;
          if counters then
            print_counters "counters (all shards)" total.Interp.counters;
          if Checkpoint.degraded r then begin
            Printf.eprintf "pp: coverage: %d/%d shards (degraded)\n"
              r.Checkpoint.completed shards;
            exit_degraded
          end
          else 0
    end
  in
  let counters = flag [ "counters"; "c" ] "Print all event counters." in
  let shards =
    positive_opt ~default:1 [ "shards" ] ~docv:"K"
      ~doc:"Execute the run K times in isolated processes and sum the \
            counters."
  in
  let jobs = jobs_arg ~default:1 "Shards to run concurrently." in
  let retries =
    positive_opt ~default:1 [ "retries" ] ~docv:"N"
      ~doc:"Attempt budget per shard: a crashed or timed-out shard is rerun \
            (with backoff) up to N times total before it is quarantined."
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Persist each completed shard's result in DIR and, on \
                   re-invocation, run only the shards still missing.  The \
                   resumed run's stdout is byte-identical to an \
                   uninterrupted one.")
  in
  command "run" ~doc
    Term.(const action $ engine $ shards $ jobs $ retries $ budget $ file
          $ workload_opt $ counters $ checkpoint_dir)

(* --- pp profile --- *)

let event_conv =
  let parse s =
    match Event.of_name s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown event %S (one of: %s)" s
                (String.concat ", " (List.map Event.name Event.all))))
  in
  Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf (Event.name e))

let profile_flow ~top profile =
  Format.printf "%a@."
    Hotpath.pp_path_classes
    (Hotpath.classify_paths profile);
  Format.printf "@.by procedure:@.%a@." Hotpath.pp_proc_classes
    (Hotpath.classify_procs profile);
  Printf.printf "\ntop %d paths by %s:\n" top
    (Event.name profile.Profile.pic0);
  List.iteri
    (fun i (proc, sum, (m : Profile.path_metrics)) ->
      if i < top then
        let p = Option.get (Profile.find_proc profile proc) in
        Format.printf "  %2d. %-18s %s=%-9d freq=%-8d %a@." (i + 1)
          (Printf.sprintf "%s#%d" proc sum)
          (Event.name profile.Profile.pic0)
          m.Profile.m0 m.Profile.freq Ball_larus.pp_path
          (Profile.decode p sum))
    (Hotpath.hot_paths ~threshold:0.0001 profile)

let profile_cct ~top session =
  let cct = Driver.cct session in
  let stats = Cct_stats.compute ~metrics_per_node:2 cct in
  Format.printf "%a@." Cct_stats.pp stats;
  Printf.printf "\ntop %d contexts by pic0 delta:\n" top;
  let nodes =
    Cct.fold (fun acc n -> n :: acc) [] cct
    |> List.filter (fun n -> Cct.parent n <> None)
    |> List.sort (fun a b ->
           compare (Cct.data b).Runtime.metrics.(1)
             (Cct.data a).Runtime.metrics.(1))
  in
  List.iteri
    (fun i node ->
      if i < top then
        let d = Cct.data node in
        Printf.printf "  %2d. %-40s entries=%-8d pic0=%-9d pic1=%d\n" (i + 1)
          (String.concat "." (Cct.context node))
          d.Runtime.metrics.(0) d.Runtime.metrics.(1) d.Runtime.metrics.(2))
    nodes

(* Serialise the runtime CCT with its metric payload; the reload side uses
   Cct_io.metrics_codec-compatible data. *)
let cct_codec =
  {
    Cct_io.encode =
      (fun (d : Runtime.record_data) ->
        Cct_io.metrics_codec.Cct_io.encode d.Runtime.metrics);
    decode =
      (fun s ->
        {
          Runtime.addr = 0;
          metrics = Cct_io.metrics_codec.Cct_io.decode s;
          paths = Hashtbl.create 1;
          ptable_addr = 0;
        });
  }

(* --- sampled instrumentation flags (pp profile, pp serve --drive) --- *)

let duty_opt =
  Arg.(value & opt (some float) None
       & info [ "duty" ] ~docv:"FRACTION"
           ~doc:"Enable sampled instrumentation: gate path commits so \
                 roughly FRACTION of each procedure's decision bursts \
                 record (0.0-1.0).  The saved shard carries per-procedure \
                 coverage windows so consumers can rescale; 1.0 gates \
                 nothing — every frequency matches an exhaustive run, and \
                 the shard is byte-identical to an unsampled session of \
                 the same hash-table instrumentation (sampling forces the \
                 zero array threshold, so small procedures' inlined \
                 array-commit cost metrics differ from the unsampled \
                 default).")

let sampling_seed_opt =
  Arg.(value & opt int 0
       & info [ "sampling-seed" ] ~docv:"SEED"
           ~doc:"Seed of the deterministic sampling schedule (with \
                 --duty).  Same seed, duty and burst replay the same \
                 gating decisions on either engine at any --jobs.")

let burst_opt =
  Arg.(value & opt int Pp_vm.Sampling.default_burst
       & info [ "burst" ] ~docv:"N"
           ~doc:"Sampling burst length: gating decisions hold for runs of \
                 N consecutive path commits per procedure (with --duty).")

(* Sampling gates path commits, so it needs a mode that has some: the
   same set --profile-out accepts. *)
let make_sampling ~mode ~burst ~seed duty =
  Option.map
    (fun d ->
      if d < 0.0 || d > 1.0 then
        exit_invalid (cli_error "--duty must be within [0, 1] (got %g)" d);
      require (positive "burst" burst);
      if not (Instrument.profiles_paths mode) then
        exit_invalid
          (cli_error
             "--duty needs a path-profiling mode (flow-freq, flow-hw or \
              context-flow); %s has no path commits to gate"
             (Instrument.mode_name mode));
      Pp_vm.Sampling.create ~burst ~duty:d ~seed ())
    duty

let profile_cmd =
  let doc =
    "Instrument, execute on the simulated UltraSPARC, and report the \
     profile."
  in
  let action engine budget top file workload mode pic0 pic1 cct_out dot_out
      profile_out duty sampling_seed burst () =
    let sampling = make_sampling ~mode ~burst ~seed:sampling_seed duty in
    let prog = load ~file ~workload in
    (* Feasibility pruning is always on for profiling sessions: the
       numbering is unchanged, so this only shrinks simulated table
       footprints and annotates saved shards. *)
    let session =
      Driver.prepare ~pruner:Pp_analysis.Feasibility.pruner
        ~max_instructions:budget ~pics:(pic0, pic1) ~engine ?sampling
        ~mode prog
    in
    let r = Driver.run session in
    print_output r;
    Printf.printf "\n%d instructions, %d cycles (instrumented, %s)\n"
      r.Interp.instructions r.Interp.cycles
      (Instrument.mode_name mode);
    Option.iter
      (fun s ->
        let windows = Pp_vm.Sampling.coverage s in
        let sampled, total =
          List.fold_left
            (fun (sa, ta) (_, (sw, tw)) -> (sa + sw, ta + tw))
            (0, 0) windows
        in
        Printf.printf
          "sampling: duty=%g burst=%d seed=%d — recorded %d of %d path \
           commits over %d procedures\n"
          (Option.value ~default:1.0 duty)
          (Pp_vm.Sampling.burst s) (Pp_vm.Sampling.seed s) sampled total
          (List.length windows))
      sampling;
    Option.iter
      (fun path ->
        if not (Instrument.profiles_paths mode) then
          exit_err
            "--profile-out needs a path-profiling mode (flow-freq, flow-hw \
             or context-flow)";
        Profile_io.to_file path (Driver.saved_profile session);
        Printf.printf "wrote path profile to %s\n" path)
      profile_out;
    (match mode with
    | Instrument.Flow_freq | Instrument.Flow_hw | Instrument.Context_flow ->
        profile_flow ~top (Driver.path_profile session)
    | Instrument.Edge_freq ->
        print_endline "\nedge profile (reconstructed from chord counters):";
        List.iter
          (fun (proc, _plan, edges) ->
            let total = List.fold_left (fun acc (_, c) -> acc + c) 0 edges in
            let hottest = List.fold_left (fun acc (_, c) -> max acc c) 0 edges in
            Printf.printf "  %-18s %9d traversals over %3d edges (hottest %d)\n"
              proc total (List.length edges) hottest)
          (Driver.edge_profile session)
    | Instrument.Context_hw -> ());
    if Instrument.profiles_context mode then begin
      profile_cct ~top session;
      let cct = Driver.cct session in
      Option.iter
        (fun path ->
          Cct_io.to_file ~codec:cct_codec path cct;
          Printf.printf "\nwrote CCT to %s\n" path)
        cct_out;
      Option.iter
        (fun path ->
          Crc32.write_file path (Cct_io.to_dot cct);
          Printf.printf "wrote CCT dot graph to %s\n" path)
        dot_out
    end;
    Metrics.incr Metrics.default "profile.instructions" r.Interp.instructions;
    Metrics.incr Metrics.default "profile.cycles" r.Interp.cycles;
    0
  in
  let pic0 =
    Arg.(value & opt event_conv (fst Driver.default_pics)
         & info [ "pic0" ] ~docv:"EVENT" ~doc:"Event on counter 0.")
  in
  let pic1 =
    Arg.(value & opt event_conv (snd Driver.default_pics)
         & info [ "pic1" ] ~docv:"EVENT" ~doc:"Event on counter 1.")
  in
  let top = positive_opt ~default:10 [ "top"; "n" ] ~docv:"N" ~doc:"Rows to print." in
  let cct_out =
    Arg.(value & opt (some string) None
         & info [ "cct-out" ] ~docv:"FILE"
             ~doc:"Write the calling context tree to FILE (context modes; \
                   the paper's write-heap-at-exit, reloadable with \
                   Cct_io).")
  in
  let dot_out =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Write the CCT as a Graphviz graph (context modes).")
  in
  let profile_out =
    Arg.(value & opt (some string) None
         & info [ "profile-out" ] ~docv:"FILE"
             ~doc:"Write the path profile to FILE as a mergeable shard \
                   (see 'pp merge').")
  in
  command "profile" ~doc
    Term.(
      const action $ engine $ budget $ top $ file $ workload_opt $ mode_arg ()
      $ pic0 $ pic1 $ cct_out $ dot_out $ profile_out $ duty_opt
      $ sampling_seed_opt $ burst_opt)

(* --- pp paths --- *)

let describe_verdict cfg = function
  | Pp_analysis.Feasibility.Feasible -> "feasible"
  | Pp_analysis.Feasibility.Infeasible_edge e ->
      Printf.sprintf "crosses never-taken edge %s -> %s"
        (Pp_ir.Cfg.vertex_name cfg e.Pp_graph.Digraph.src)
        (Pp_ir.Cfg.vertex_name cfg e.Pp_graph.Digraph.dst)
  | Pp_analysis.Feasibility.Infeasible_branch { block; value } ->
      Printf.sprintf "contradicts constant branch at L%d (condition = %d)"
        block value

(* [pp paths] numbers each procedure once, with its feasibility table
   under --feasible or --table, and prints that as text or as JSON. *)
let print_paths_text ~table reports =
  let module F = Pp_analysis.Feasibility in
  List.iter
    (fun ((proc : Pp_ir.Proc.t), cfg, numbering) ->
      match numbering with
      | Error msg -> Printf.printf "%-20s unsupported: %s\n" proc.name msg
      | Ok (bl, fs) -> (
          let paths = Ball_larus.num_paths bl in
          Printf.printf "%-20s blocks=%-4d backedges=%-3d potential paths="
            proc.name (Pp_ir.Proc.num_blocks proc)
            (List.length (Ball_larus.backedges bl));
          match fs with
          | None -> Printf.printf "%d\n" paths
          | Some fs when not (F.enumerated fs) ->
              Printf.printf "%-6d feasible=? (table too large to enumerate)\n"
                paths
          | Some fs ->
              let nf = F.num_feasible fs in
              Printf.printf "%-6d feasible=%-6d pruned=%d\n" paths nf
                (paths - nf);
              if table then
                for sum = 0 to paths - 1 do
                  let v = F.check fs sum in
                  Printf.printf "%s\n"
                    (Format.asprintf "  path %-5d %-10s %a" sum
                       (if v = F.Feasible then "feasible" else "infeasible")
                       Ball_larus.pp_path (Ball_larus.decode bl sum));
                  if v <> F.Feasible then
                    Printf.printf "             (%s)\n"
                      (describe_verdict cfg v)
                done
              else
                List.iter
                  (fun sum ->
                    Printf.printf "  infeasible path %d: %s\n" sum
                      (describe_verdict cfg (F.check fs sum)))
                  (F.infeasible_sums fs)))
    reports

let paths_json reports =
  let module F = Pp_analysis.Feasibility in
  let open Json in
  let proc_json ((proc : Pp_ir.Proc.t), cfg, numbering) =
    let name = ("proc", String proc.name) in
    match numbering with
    | Error msg -> Object [ name; ("unsupported", String msg) ]
    | Ok (bl, fs) ->
        let paths = Ball_larus.num_paths bl in
        let feasibility =
          match fs with
          | None -> []
          | Some fs when not (F.enumerated fs) -> [ ("feasible", Null) ]
          | Some fs ->
              let nf = F.num_feasible fs in
              let pruned sum =
                let why = describe_verdict cfg (F.check fs sum) in
                Object [ ("path", Int sum); ("reason", String why) ]
              in
              [ ("feasible", Int nf); ("pruned", Int (paths - nf));
                ("infeasible", List (List.map pruned (F.infeasible_sums fs))) ]
        in
        Object
          ([ name; ("blocks", Int (Pp_ir.Proc.num_blocks proc));
             ("backedges", Int (List.length (Ball_larus.backedges bl)));
             ("potential_paths", Int paths) ]
          @ feasibility)
  in
  to_string (Object [ ("procs", List (List.map proc_json reports)) ])

let paths_cmd =
  let doc =
    "Static path-numbering report: potential (and statically feasible) \
     paths per procedure."
  in
  let action file workload feasible table dot_proc json () =
    let prog = load ~file ~workload in
    let number proc =
      let cfg = Pp_ir.Cfg.of_proc proc in
      match Ball_larus.build cfg with
      | exception Ball_larus.Unsupported msg -> (proc, cfg, Error msg)
      | bl when feasible || table ->
          (proc, cfg, Ok (bl, Some (Pp_analysis.Feasibility.analyze cfg bl)))
      | bl -> (proc, cfg, Ok (bl, None))
    in
    let reports = List.map number (Array.to_list prog.Pp_ir.Program.procs) in
    if json then print_endline (paths_json reports)
    else print_paths_text ~table reports;
    if not json then
      Option.iter
        (fun name ->
          match Pp_ir.Program.find_proc prog name with
          | None -> exit_err (Printf.sprintf "no procedure %S" name)
          | Some p ->
              let cfg = Pp_ir.Cfg.of_proc p in
              let bl = Ball_larus.build cfg in
              print_string
                (Pp_graph.Dot.to_string cfg.Pp_ir.Cfg.graph ~name
                   ~vertex_label:(Pp_ir.Cfg.vertex_name cfg)
                   ~edge_label:(fun e ->
                     if
                       List.exists
                         (fun (b : Pp_graph.Digraph.edge) ->
                           b.Pp_graph.Digraph.id = e.Pp_graph.Digraph.id)
                         (Ball_larus.backedges bl)
                     then "backedge"
                     else string_of_int (Ball_larus.edge_val bl e))))
        dot_proc;
    0
  in
  let feasible =
    Arg.(value & flag
         & info [ "feasible" ]
             ~doc:"Run the static feasibility analysis and report \
                   feasible/pruned path counts per procedure, with a \
                   reason for every pruned path.")
  in
  let table =
    Arg.(value & flag
         & info [ "table" ]
             ~doc:"Print the full path table: every path sum, its \
                   feasibility verdict and its decoded block sequence.")
  in
  let dot_proc =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"PROC"
             ~doc:"Also print PROC's CFG as Graphviz, edges labelled with \
                   their Ball-Larus values.")
  in
  command "paths" ~doc
    Term.(
      const action $ file $ workload_opt $ feasible $ table $ dot_proc
      $ json_report)

(* --- pp cost --- *)

let cost_cmd =
  let doc =
    "Static instrumentation cost report: probe sites, code growth and \
     estimated probe executions per procedure; with --profile, the \
     estimated-vs-measured comparison against a dynamic profile."
  in
  let action file workload mode optimize profile json () =
    let prog = load ~file ~workload in
    let profile = Option.map load_profile profile in
    let options =
      { Instrument.default_options with Instrument.optimize_placement = optimize }
    in
    match Pp_analysis.Cost.compute ~options ~mode ?profile prog with
    | Error d -> exit_invalid d
    | Ok report ->
        if json then print_endline (Pp_analysis.Cost.to_json report)
        else print_string (Pp_analysis.Cost.render report);
        0
  in
  let optimize =
    flag [ "optimize-placement" ]
      "Cost the optimized (spanning-tree chord) placement."
  in
  let profile =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"A profile shard from 'pp profile --profile-out' to \
                   compare estimates against (same program and mode).")
  in
  command "cost" ~doc
    Term.(
      const action $ file $ workload_opt $ mode_arg () $ optimize $ profile
      $ json_report)

(* --- pp disasm --- *)

let disasm_cmd =
  let doc =
    "Print a procedure's IR, optionally after instrumentation (what the \
     editor actually inserted)."
  in
  let action file workload proc mode () =
    let prog = load ~file ~workload in
    let prog =
      match mode with
      | None -> prog
      | Some mode -> fst (Instrument.run ~mode prog)
    in
    let dump (p : Pp_ir.Proc.t) = Format.printf "%a@.@." Pp_ir.Proc.pp p in
    (match proc with
    | Some name -> (
        match Pp_ir.Program.find_proc prog name with
        | Some p -> dump p
        | None -> exit_err (Printf.sprintf "no procedure %S" name))
    | None -> Array.iter dump prog.Pp_ir.Program.procs);
    0
  in
  let proc =
    Arg.(value & opt (some string) None
         & info [ "proc"; "p" ] ~docv:"NAME"
             ~doc:"Only this procedure (default: all).")
  in
  let mode =
    Arg.(value & opt (some mode_conv) None
         & info [ "instrument"; "i" ] ~docv:"MODE"
             ~doc:"Show the listing after instrumenting for MODE.")
  in
  command "disasm" ~doc
    Term.(const action $ file $ workload_opt $ proc $ mode)

(* --- pp check, pp prove --- *)

(* Findings are structured diagnostics: exit 2 unless every mode came
   back clean. *)
let modes_status results =
  if List.for_all (fun (_, r) -> r = Ok []) results then 0 else 2

(* One line per mode, then its findings. *)
let report_modes ~ok ~failed prog results =
  List.iter
    (fun (mode, result) ->
      let name = Instrument.mode_name mode in
      match result with
      | Error msg -> Printf.printf "%-13s cannot instrument: %s\n" name msg
      | Ok [] ->
          Printf.printf "%-13s %s (%d procedures)\n" name ok
            (Array.length prog.Pp_ir.Program.procs)
      | Ok diags ->
          Printf.printf "%-13s %s (%d errors)\n" name failed
            (List.length diags);
          List.iter (fun d -> print_endline ("  " ^ Diag.to_string d)) diags)
    results;
  modes_status results

let check_cmd =
  let doc =
    "Statically verify that instrumentation is correct: path sums, commit \
     coverage, PIC discipline and flow conservation, per mode."
  in
  let action file workload modes lint_flag options () =
    (* For lint we parse .ppir without validating first, so the
       unreachable-code check can fire before Validate rejects it. *)
    let lint_diags prog = Pp_analysis.Lint.run prog in
    let raw_lint =
      if not lint_flag then []
      else
        match (file, workload) with
        | Some path, None when Filename.check_suffix path ".ppir" -> (
            match
              Pp_ir.Ir_text.parse
                (In_channel.with_open_bin path In_channel.input_all)
            with
            | prog -> lint_diags prog
            | exception Pp_ir.Ir_text.Parse_error (line, msg) ->
                exit_err (Printf.sprintf "%s:%d: %s" path line msg))
        | _ -> []
    in
    let prog = load ~file ~workload in
    let warnings =
      if not lint_flag then []
      else if raw_lint <> [] then raw_lint
      else lint_diags prog
    in
    List.iter (fun d -> print_endline (Pp_ir.Diag.to_string d)) warnings;
    report_modes ~ok:"ok" ~failed:"FAILED" prog
      (List.map
         (fun mode ->
           match Instrument.run ~options ~mode prog with
           | exception Ball_larus.Unsupported msg -> (mode, Error msg)
           | instrumented, manifest ->
               ( mode,
                 Ok
                   (Pp_analysis.Verifier.verify_program ~original:prog
                      ~manifest instrumented) ))
         (if modes = [] then Instrument.all_modes else modes))
  in
  let modes =
    modes_arg mode_conv "Mode to verify (repeatable; default: all five)."
  in
  let lint_flag =
    flag [ "lint" ]
      "Also run the dataflow lint (unreachable code, uninitialised reads, \
       dead stores, unused functions) on the uninstrumented program."
  in
  command "check" ~doc
    Term.(
      const action $ file $ workload_opt $ modes $ lint_flag
      $ instrument_options ~verb:"Verify")

(* --- pp prove --- *)

let prove_json ~file ~workload ~budget prog results =
  let open Json in
  let diag (d : Diag.t) =
    let severity = if d.severity = Diag.Error then "error" else "warning" in
    let pos = function Diag.Instr i -> Int i | Terminator -> String "term" in
    Object
      [ ("severity", String severity); ("proc", String d.loc.proc);
        ("block", Option.fold ~none:Null ~some:(fun l -> Int l) d.loc.block);
        ("pos", Option.fold ~none:Null ~some:pos d.loc.position);
        ("message", String d.message) ]
  in
  let mode_json (mode, result) =
    let mode = ("mode", String (Instrument.mode_name mode)) in
    match result with
    | Error msg ->
        Object
          [ mode; ("status", String "unsupported"); ("message", String msg) ]
    | Ok diags ->
        Object
          [ mode; ("status", String (if diags = [] then "ok" else "failed"));
            ("procedures", Int (Array.length prog.Pp_ir.Program.procs));
            ("errors", List (List.map diag diags)) ]
  in
  to_string
    (Object
       [ ("program", String (input_name ~file ~workload));
         ("budget", Int budget);
         ("modes", List (List.map mode_json results)) ])

let prove_cmd =
  let doc =
    "Certify instrumentation by abstract interpretation: interval + \
     congruence proofs that every table access is in bounds and every \
     counter bounded, and a taint proof that instrumentation state never \
     perturbs program-visible behaviour."
  in
  let action budget file workload modes json options inject () =
    let prog = load ~file ~workload in
    let modes = if modes = [] then Instrument.all_modes else modes in
    let results =
      List.map
        (fun mode ->
          match
            Instrument.run ~options
              ~pruner:Pp_analysis.Feasibility.pruner ~mode prog
          with
          | exception Ball_larus.Unsupported msg -> (mode, Error msg)
          | instrumented, manifest ->
              let instrumented =
                match inject with
                | None -> instrumented
                | Some (name, kind) -> (
                    match
                      Pipeline.inject kind ~original:prog ~manifest
                        instrumented
                    with
                    | Ok mutant -> mutant
                    | Error msg ->
                        exit_err
                          (Printf.sprintf "--inject %s: %s" name msg))
              in
              ( mode,
                Ok
                  (Pp_analysis.Verifier.prove_program ~budget ~original:prog
                     ~manifest instrumented) ))
        modes
    in
    if json then begin
      print_endline (prove_json ~file ~workload ~budget prog results);
      modes_status results
    end
    else report_modes ~ok:"certified" ~failed:"NOT CERTIFIED" prog results
  in
  let modes =
    modes_arg mode_conv "Mode to certify (repeatable; default: all five)."
  in
  let inject =
    let kind name k = (name, (name, k)) in
    Arg.(value
         & opt
             (some
                (enum
                   [ kind "bounds" Pipeline.Bounds; kind "taint" Pipeline.Taint ]))
             None
         & info [ "inject" ] ~docv:"KIND"
             ~doc:"Seed a violation before proving (self-test): 'bounds' \
                   shrinks a counter table by one word, 'taint' leaks the \
                   path location into an original register.  The run must \
                   then exit 2.")
  in
  command "prove" ~doc
    Term.(
      const action $ budget $ file $ workload_opt $ modes $ json_report
      $ instrument_options ~verb:"Certify"
      $ inject)

(* --- pp bench --- *)

let bench_cmd =
  let doc =
    "Run the workload x instrumentation-mode matrix (the paper's \
     evaluation grid) through the process pool and print one deterministic \
     report: byte-identical at any --jobs."
  in
  let action engine jobs budget timeout workloads modes () =
    (match workloads with
    | [] -> ()
    | ws ->
        List.iter
          (fun w ->
            if Registry.find w = None then
              exit_err (Printf.sprintf "unknown workload %S" w))
          ws);
    let configs =
      match modes with
      | [] -> Matrix.all_configs
      | ms -> Matrix.Base :: List.map (fun m -> Matrix.Mode m) ms
    in
    let tasks =
      Matrix.tasks
        ?workloads:(match workloads with [] -> None | ws -> Some ws)
        ~configs ()
    in
    let results, footer =
      Matrix.run_footer ~jobs
        ?timeout:(if timeout > 0.0 then Some timeout else None)
        ~budget ~engine tasks
    in
    print_string (Matrix.report results);
    (* Per-worker wall times are wall-clock dependent: stderr only, so
       stdout stays byte-identical at any --jobs. *)
    prerr_string footer;
    match Matrix.failures results with
    | [] -> 0
    | fs ->
        List.iter (fun f -> Printf.eprintf "pp: %s\n" f) fs;
        1
  in
  let jobs =
    jobs_arg ~default:1 "Concurrent worker processes (1 = in-process, serial)."
  in
  let timeout =
    non_negative_opt ~default:0.0 [ "timeout" ] ~docv:"SECONDS"
      ~doc:"Kill a shard after this long (0 = no limit; needs --jobs > 1)."
  in
  let workloads =
    Arg.(value & opt_all string []
         & info [ "workload"; "w" ] ~docv:"NAME"
             ~doc:"Restrict to this workload (repeatable; default: all).")
  in
  let modes =
    modes_arg mode_conv
      "Restrict to base plus this mode (repeatable; default: base and all \
       five)."
  in
  command "bench" ~doc
    Term.(const action $ engine $ jobs $ budget $ timeout $ workloads $ modes)

(* --- pp merge --- *)

let merge_cmd =
  let doc =
    "Sum profile shards saved by 'pp profile --profile-out' (or CCTs saved \
     by --cct-out, with --cct) into one profile."
  in
  let action out cct_mode stats inputs () =
    if cct_mode then begin
      match Cct_io.merge_files inputs with
      | Error (`Read msg) -> exit_err msg
      | Error (`Conflict d) -> exit_invalid d
      | Ok merged ->
          Cct_io.to_file ~codec:Cct_io.metrics_codec out merged;
          Printf.printf "merged %d CCTs (%d call records) into %s\n"
            (List.length inputs)
            (Cct.num_nodes merged - 1)
            out;
          0
    end
    else begin
      (* The fold 'pp serve' streams shards through, one shard at a time
         so --stats can time each shard's read and merge separately. *)
      let t_start = Unix.gettimeofday () in
      let agg = Serve.agg_create () in
      let records (s : Profile_io.saved) =
        List.fold_left
          (fun acc (_, _, paths) -> acc + 1 + List.length paths)
          0 s.Profile_io.procs
        + List.length s.Profile_io.feasible
        + List.length s.Profile_io.coverage
      in
      List.iter
        (fun path ->
          let t0 = Unix.gettimeofday () in
          let s = load_profile path in
          let t1 = Unix.gettimeofday () in
          let added = Serve.agg_add agg s in
          let t2 = Unix.gettimeofday () in
          let n = records s in
          let m = Metrics.default in
          Metrics.incr m "merge.shards" 1;
          Metrics.incr m "merge.records" n;
          Metrics.observe m "merge.us" (int_of_float ((t2 -. t1) *. 1e6));
          if stats then
            Printf.eprintf "  shard %s: %d records, read %.2fms, merge %.2fms\n"
              path n
              ((t1 -. t0) *. 1e3)
              ((t2 -. t1) *. 1e3);
          Result.iter_error exit_invalid added)
        inputs;
      let merged = Option.get (Serve.agg_finish agg) in
      Profile_io.to_file out merged;
      let freq, m0, m1 = Profile_io.totals merged in
      Printf.printf
        "merged %d shards into %s: %d procedures, freq=%d %s=%d %s=%d\n"
        (List.length inputs) out
        (List.length merged.Profile_io.procs)
        freq
        (Event.name merged.Profile_io.pic0)
        m0
        (Event.name merged.Profile_io.pic1)
        m1;
      if stats then
        Printf.eprintf "merge: %d shards in %.2fms\n" (List.length inputs)
          ((Unix.gettimeofday () -. t_start) *. 1e3);
      0
    end
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let cct_mode =
    Arg.(value & flag
         & info [ "cct" ]
             ~doc:"Merge calling context trees (files from --cct-out) \
                   instead of path profiles.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Report per-shard record counts and read/merge timings \
                   on stderr (path-profile mode), and bump the merge.* \
                   metrics for --telemetry.")
  in
  let inputs =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"SHARD" ~doc:"Profile shards to merge.")
  in
  command "merge" ~doc
    Term.(const action $ out $ cct_mode $ stats $ inputs)

(* --- pp serve --- *)

let serve_cmd =
  let doc =
    "Always-on aggregation service: a Unix-domain socket daemon that \
     merges streamed binary profile shards live, under a bounded memory \
     budget, with JSON observability snapshots (SIGUSR1, or \
     --snapshot-every)."
  in
  let action engine snapshot_every socket expect out max_records spill_dir
      snapshot_out send corrupt_after drive file workload budget mode duty
      sampling_seed burst () =
    Option.iter (fun n -> require (positive "max-records" n)) max_records;
    Option.iter (fun k -> require (positive "corrupt-after" k)) corrupt_after;
    let require_out () =
      match out with
      | Some path -> path
      | None ->
          exit_invalid
            (cli_error "-o FILE is required to receive the merged profile")
    in
    (* SIGUSR1 asks for a snapshot; SIGTERM asks for an orderly shutdown
       (streams still open then count as torn, and the short count makes
       the verdict degraded).  The handlers only set flags; the serve
       loop polls them between select rounds. *)
    let snapshot_flag = ref false in
    let stop_flag = ref false in
    let install_signals () =
      Sys.set_signal Sys.sigusr1
        (Sys.Signal_handle (fun _ -> snapshot_flag := true));
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> stop_flag := true))
    in
    let poll_snapshot () =
      let r = !snapshot_flag in
      if r then snapshot_flag := false;
      r
    in
    let emit json =
      match snapshot_out with
      | Some path ->
          let oc =
            open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
          in
          output_string oc json;
          output_char oc '\n';
          close_out oc
      | None -> prerr_endline json
    in
    let finish out_path (v : Serve.verdict) =
      Option.iter (Profile_io.to_file out_path) v.Serve.merged;
      Option.iter
        (fun d -> Printf.eprintf "pp serve: merge conflict: %s\n"
            (Diag.to_string d))
        v.Serve.conflict;
      Printf.printf
        "serve: %d/%d streams (%d accepted, %d salvaged, %d rejected), %d \
         bytes in, peak %d resident records"
        (v.Serve.accepted + v.Serve.salvaged)
        v.Serve.expected v.Serve.accepted v.Serve.salvaged v.Serve.rejected
        v.Serve.bytes v.Serve.peak_records;
      if v.Serve.spilled > 0 then
        Printf.printf ", %d spill files" v.Serve.spilled;
      if v.Serve.evicted_records > 0 then
        Printf.printf ", %d records evicted" v.Serve.evicted_records;
      print_newline ();
      (match v.Serve.merged with
      | Some m ->
          let freq, _, _ = Profile_io.totals m in
          Printf.printf "wrote merged profile to %s: %d procedures, freq=%d\n"
            out_path
            (List.length m.Profile_io.procs)
            freq
      | None -> Printf.eprintf "pp serve: no stream contributed records\n");
      if Serve.degraded v then exit_degraded else 0
    in
    match (send, drive) with
    | Some _, Some _ ->
        exit_invalid (cli_error "--send and --drive are mutually exclusive")
    | Some shard, None ->
        (* Client mode: stream one saved shard into a running daemon. *)
        ok_or_exit (Serve.send_file ?corrupt_after ~socket shard);
        0
    | None, Some k ->
        (* Drive mode: the self-contained e2e — fork K client runs and
           aggregate them concurrently in this process. *)
        require (positive "drive" k);
        let out_path = require_out () in
        if not (Instrument.profiles_paths mode) then
          exit_invalid
            (cli_error
               "--drive needs a path-profiling mode (flow-freq, flow-hw or \
                context-flow)");
        let prog = load ~file ~workload in
        (* Validate --duty/--burst here: a child exiting on a bad flag
           would leave its stream unresolved. *)
        ignore (make_sampling ~mode ~burst ~seed:sampling_seed duty);
        let client i () =
          (* Each client gets its own sampling seed, so the drive run
             exercises genuinely different gating schedules. *)
          let sampling =
            make_sampling ~mode ~burst ~seed:(sampling_seed + i) duty
          in
          let session =
            Driver.prepare ~pruner:Pp_analysis.Feasibility.pruner
              ~max_instructions:budget ~engine ?sampling ~mode prog
          in
          ignore (Driver.run session);
          Driver.saved_profile session
        in
        install_signals ();
        let verdict, failures =
          Serve.drive ?max_records ?spill_dir ~snapshot_every ~snapshot:emit
            ~snapshot_requested:poll_snapshot
            ~stop:(fun () -> !stop_flag)
            ~socket
            (List.init k client)
            ()
        in
        if failures > 0 then
          Printf.eprintf "pp serve: %d client process(es) failed\n" failures;
        finish out_path verdict
    | None, None ->
        (* Aggregator mode. *)
        let expect =
          match expect with
          | Some n ->
              require (positive "expect" n);
              n
          | None ->
              exit_invalid
                (cli_error
                   "--expect N is required (how many client streams to wait \
                    for), or use --send / --drive")
        in
        let out_path = require_out () in
        install_signals ();
        let verdict =
          Serve.serve ?max_records ?spill_dir ~snapshot_every ~snapshot:emit
            ~snapshot_requested:poll_snapshot
            ~stop:(fun () -> !stop_flag)
            ~socket ~expect ()
        in
        finish out_path verdict
  in
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket the daemon listens on (and clients \
                   connect to).")
  in
  let expect =
    Arg.(value & opt (some int) None
         & info [ "expect" ] ~docv:"N"
             ~doc:"Aggregator mode: finish after N client streams have \
                   resolved.")
  in
  let out_opt =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the merged profile shard to FILE at shutdown.")
  in
  let max_records =
    Arg.(value & opt (some int) None
         & info [ "max-records" ] ~docv:"N"
             ~doc:"Bound the resident merge table to N path records; \
                   over budget, spill to --spill-dir or evict \
                   coldest-first (degraded, exit 3).")
  in
  let spill_dir =
    Arg.(value & opt (some string) None
         & info [ "spill-dir" ] ~docv:"DIR"
             ~doc:"Directory for over-budget spill shards, consolidated \
                   at shutdown (with --max-records).")
  in
  let snapshot_every =
    validated
      (fun k ->
        if k >= 0 then None
        else Some (cli_error "--snapshot-every must be non-negative (got %d)" k))
      Arg.(value & opt int 0
           & info [ "snapshot-every" ] ~docv:"K"
               ~doc:"Emit a JSON observability snapshot every K resolved \
                     streams (0 = only at shutdown and on SIGUSR1).")
  in
  let snapshot_out =
    Arg.(value & opt (some string) None
         & info [ "snapshot-out" ] ~docv:"FILE"
             ~doc:"Append JSON snapshots to FILE instead of stderr.")
  in
  let send =
    Arg.(value & opt (some string) None
         & info [ "send" ] ~docv:"SHARD"
             ~doc:"Client mode: stream the given profile shard (a \
                   --profile-out file) into the socket and exit.")
  in
  let corrupt_after =
    Arg.(value & opt (some int) None
         & info [ "corrupt-after" ] ~docv:"K"
             ~doc:"With --send: transmit only the first K frames intact, \
                   then garbage — fault injection for the daemon's \
                   salvage path.")
  in
  let drive =
    Arg.(value & opt (some int) None
         & info [ "drive" ] ~docv:"K"
             ~doc:"Self-contained end-to-end: fork K client profiling \
                   runs of FILE or --workload and aggregate their streams \
                   live.")
  in
  let mode =
    mode_arg
      ~doc:"Instrumentation mode for --drive clients (flow-freq, flow-hw or \
            context-flow)."
      ()
  in
  command "serve" ~doc
    Term.(
      const action $ engine $ snapshot_every $ socket $ expect $ out_opt
      $ max_records $ spill_dir $ snapshot_out $ send $ corrupt_after $ drive
      $ file $ workload_opt $ budget $ mode $ duty_opt $ sampling_seed_opt
      $ burst_opt)

(* --- pp trace --- *)

let trace_cmd =
  let doc =
    "Run a profiling session with self-telemetry enabled and write a \
     Chrome trace_event timeline (about://tracing / Perfetto) of the \
     profiler's own phases: instrument, vm.setup, execute (with periodic \
     counter samples), extract.profile."
  in
  let action engine interval budget file workload mode out text () =
    let prog = load ~file ~workload in
    let tr = Trace.create () in
    let out_path =
      match out with
      | Some o -> o
      | None -> (
          match (file, workload) with
          | Some f, _ -> Filename.remove_extension f ^ ".trace.json"
          | None, Some w -> w ^ ".trace.json"
          | None, None -> "pp.trace.json")
    in
    let finish ~failed =
      Crc32.write_file out_path (Trace.to_chrome_json tr);
      if text then print_string (Trace.to_text tr);
      Printf.printf "wrote %d events (%d dropped) to %s\n"
        (List.length (Trace.events tr))
        (Trace.dropped tr) out_path;
      if failed then 1 else 0
    in
    let session =
      Driver.prepare ~max_instructions:budget ~telemetry:tr
        ~telemetry_interval:interval ~engine ~mode prog
    in
    (* The trap is recorded in the trace, so it is handled here. *)
    match Driver.run session with
    | exception Interp.Trap msg ->
        Trace.instant tr "trap";
        Printf.eprintf "pp: trap: %s\n" msg;
        finish ~failed:true
    | _r ->
        if Instrument.profiles_paths mode then
          ignore (Driver.path_profile session);
        finish ~failed:false
  in
  let interval =
    positive_opt ~default:100_000 [ "interval" ] ~docv:"CYCLES"
      ~doc:"Simulated cycles between VM counter samples."
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output file (default: <input>.trace.json).")
  in
  let text =
    Arg.(value & flag
         & info [ "text" ]
             ~doc:"Also print the compact indented text timeline to \
                   stdout.")
  in
  command "trace" ~doc
    Term.(const action $ engine $ interval $ budget $ file $ workload_opt
          $ mode_arg () $ out $ text)

(* --- pp overhead --- *)

let overhead_cmd =
  let doc =
    "Measure instrumentation overhead and perturbation against the \
     uninstrumented baseline (the paper's Tables 1 and 2).  The \
     instruction delta is split by probe category, counting what the \
     inserted code retired on the run; the cycle delta is split into \
     those issue cycles and each event's perturbation cycles.  Exits 2 \
     if either split fails to account exactly for the measured delta."
  in
  let action engine jobs budget file workload modes json_flag out () =
    let prog = load ~file ~workload in
    let program = input_name ~file ~workload in
    let modes = resolve_modes modes in
    let report = Overhead.compute ~budget ~engine ~jobs ~modes ~program prog in
    if json_flag then print_endline (Overhead.to_json report)
    else print_string (Overhead.render report);
    Option.iter
      (fun path -> Crc32.write_file path (Overhead.to_json report))
      out;
    match Overhead.check report with
    | Ok () -> 0
    | Error msg ->
        exit_invalid
          (Diag.error (Diag.proc_loc "<overhead>")
             "attribution check failed: %s" msg)
  in
  let modes =
    modes_arg mode_or_all_conv
      "Mode to measure: edge-freq, flow-freq, flow-hw, context-hw, \
       context-flow or all (repeatable; default: all)."
  in
  let jobs =
    jobs_arg ~default:1
      "Measure modes concurrently (the report is byte-identical at any N)."
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Also write the JSON report to FILE (e.g. \
                   OVERHEAD.json).")
  in
  command "overhead" ~doc
    Term.(const action $ engine $ jobs $ budget $ file $ workload_opt $ modes
          $ json_report $ out)

(* --- pp predict --- *)

let predict_cmd =
  let doc =
    "Statically predict per-path hardware metrics (cycles, D- and \
     I-cache misses, stall cycles) by abstract interpretation of the \
     machine's caches and pipeline, then certify every predicted \
     interval against the counters measured along the same Ball-Larus \
     paths.  Every measured path gets a verdict: CONFIRMED (measurement \
     inside a tight interval), VACUOUS (inside, but the interval is \
     unbounded or loose) or REFUTED (outside -- a soundness bug, or a \
     deliberately injected model/machine mismatch).  Exits 2 when \
     anything is REFUTED or the measurement oracle reports an anomaly."
  in
  let action engine budget slack file workload modes inject json_flag table
      () =
    let inject =
      Option.map
        (fun s ->
          match Predict_run.inject_of_string s with
          | Some i -> i
          | None ->
              exit_invalid
                (cli_error "--inject must be one of: %s (got %S)"
                   (String.concat ", "
                      (List.map Predict_run.inject_name Predict_run.injects))
                   s))
        inject
    in
    let prog = load ~file ~workload in
    let modes = resolve_modes modes in
    let outcomes =
      List.map
        (fun mode ->
          Predict_run.run ~budget ~engine ?inject ~vacuous_slack:slack ~mode
            prog)
        modes
    in
    if json_flag then print_endline (Predict_run.to_json outcomes)
    else begin
      List.iter
        (fun (o : Predict_run.outcome) ->
          if table then Predict_run.render_table Format.std_formatter o
          else
            Printf.printf
              "%-13s %-9s paths %4d  windows %7d  confirmed %4d  \
               vacuous %4d  refuted %4d  mean-slack %8.2f%s\n"
              (Instrument.mode_name o.mode)
              (Engine.kind_name o.engine)
              (List.length o.rows) o.windows o.confirmed o.vacuous
              o.refuted o.mean_slack
              (if o.trapped then "  (trapped)" else ""))
        outcomes
    end;
    List.iter
      (fun o ->
        List.iter
          (fun e -> Printf.eprintf "pp predict: %s\n" e)
          (Predict_run.errors o))
      outcomes;
    Predict_run.exit_code outcomes
  in
  let modes =
    modes_arg mode_or_all_conv
      "Mode to certify: edge-freq, flow-freq, flow-hw, context-hw, \
       context-flow or all (repeatable; default: all)."
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"Execute on a deliberately mutated geometry while the \
                   analysis models the configured one: 'dcache' (halved \
                   D-cache) or 'icache' (halved I-cache lines).  The run \
                   must end REFUTED (exit 2) -- this is how CI proves the \
                   certifier can catch a wrong model.")
  in
  let table =
    flag [ "table" ]
      "Print the full predicted-vs-measured per-path table for each mode \
       instead of one summary line."
  in
  let slack =
    non_negative_opt ~default:8.0 [ "slack" ] ~docv:"S"
      ~doc:"Vacuousness threshold: a bounded interval wider than S per \
            measured window degrades to VACUOUS."
  in
  command "predict" ~doc
    Term.(const action $ engine $ budget $ slack $ file $ workload_opt $ modes
          $ inject $ json_report $ table)

(* --- pp chaos --- *)

let kind_conv =
  Arg.enum
    [
      ("crash-heavy", Faults.Crash_heavy);
      ("corruption-heavy", Faults.Corruption_heavy);
      ("mixed", Faults.Mixed);
    ]

let chaos_cmd =
  let doc =
    "Run a seeded fault-injection experiment over a sharded profiling run \
     — workers crash, stall, die mid-write, or their shards are corrupted \
     on disk — and verify that the merged profile recovered from disk is \
     byte-identical to a fault-free run.  Exits 3 if recovery was only \
     partial (degraded coverage), 1 if the recovered profile differs."
  in
  let action engine shards jobs retries budget timeout file workload mode seed
      kind dir () =
    let prog = load ~file ~workload in
    (* Stalls must outlive the timeout or they are not faults. *)
    let plan =
      Faults.seeded ~stall:((2.0 *. timeout) +. 1.0) kind ~seed
        ~tasks:shards
    in
    Printf.printf "plan: %s\n" (Faults.summary plan);
    List.iter
      (fun line -> Printf.printf "  %s\n" line)
      (Faults.describe_plan plan);
    match
      Chaos.run ~dir ~mode ~budget ~engine ~jobs ~retries ~timeout ~plan
        ~shards prog
    with
    | Error d -> exit_err (Diag.to_string d)
    | Ok r ->
        (* Wall-clock pool summary to stderr; the verdict below is
           deterministic for a given seed, so stdout stays golden. *)
        prerr_string r.Chaos.footer;
        print_newline ();
        print_endline (Chaos.coverage r);
        List.iteri
          (fun k st ->
            match st with
            | Chaos.Recovered -> ()
            | Chaos.Salvaged rep ->
                Printf.printf
                  "shard %d: salvaged %d of %d records (damage at line \
                   %d)\n"
                  k rep.Profile_io.recovered rep.Profile_io.total
                  rep.Profile_io.first_bad_line
            | Chaos.Lost reason ->
                Printf.printf "shard %d: lost (%s)\n" k reason)
          r.Chaos.states;
        (match r.Chaos.merged with
        | Some m ->
            let freq, m0, m1 = Profile_io.totals m in
            Printf.printf
              "recovered profile: %d procedures, freq=%d %s=%d %s=%d\n"
              (List.length m.Profile_io.procs)
              freq
              (Event.name m.Profile_io.pic0)
              m0
              (Event.name m.Profile_io.pic1)
              m1
        | None -> print_endline "no profile recovered");
        print_endline
          (if r.Chaos.identical then
             "recovered profile is byte-identical to the fault-free \
              reference"
           else "recovered profile DIFFERS from the fault-free reference");
        if Chaos.degraded r then exit_degraded
        else if not r.Chaos.identical then begin
          Printf.eprintf
            "pp: recovered profile differs from the fault-free reference\n";
          1
        end
        else 0
  in
  let mode =
    mode_arg
      ~doc:"Path-profiling mode for the shards (flow-freq, flow-hw or \
            context-flow)."
      ()
  in
  let shards =
    positive_opt ~default:4 [ "shards" ] ~docv:"K"
      ~doc:"Shards to profile and merge."
  in
  let jobs =
    jobs_arg ~default:2
      "Concurrent workers (keep > 1: stall faults are only killable in \
       forked workers)."
  in
  let retries =
    positive_opt ~default:3 [ "retries" ] ~docv:"N"
      ~doc:"Attempt budget per shard.  The plan only faults early attempts, \
            so 2 or more must converge to full coverage; 1 demonstrates \
            degraded recovery."
  in
  let timeout =
    non_negative_opt ~default:10.0 [ "timeout" ] ~docv:"SECONDS"
      ~doc:"Kill a shard after this long; injected stalls sleep past it."
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Fault-plan seed; the whole experiment is a deterministic \
                   function of it.")
  in
  let kind =
    Arg.(value & opt kind_conv Faults.Mixed
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Fault mix: crash-heavy, corruption-heavy or mixed.")
  in
  let dir =
    Arg.(value & opt string "chaos-shards"
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory for the shard files (created if needed; \
                   existing shard files are removed first).")
  in
  command "chaos" ~doc
    Term.(
      const action $ engine $ shards $ jobs $ retries $ budget $ timeout $ file
      $ workload_opt $ mode $ seed $ kind $ dir)

(* --- pp optimize --- *)

let source_conv = Arg.enum [ ("cct", `Cct); ("flat", `Flat) ]

let optimize_cmd =
  let doc =
    "Profile-guided optimization: profile the program (per-path hardware \
     metrics plus the calling context tree), then apply superblock \
     layout, hot/cold splitting, context-driven inlining, straightening \
     and cache-conscious global data placement; re-measure and report.  \
     --source flat is the ablation baseline: the same pipeline driven by \
     an edge profile only (gprof-style per-callee totals, greedy block \
     order)."
  in
  let action engine budget inline_budget file workload source out_file
      json_flag certify no_layout no_split no_straighten no_inline no_data () =
    let prog = load ~file ~workload in
    let summary = ok_or_exit (Pipeline.summarize ~engine ~budget ~source prog) in
    let knobs =
      {
        Pp_opt.Pgo.default_knobs with
        Pp_opt.Pgo.layout = not no_layout;
        split_cold = not no_split;
        straighten = not no_straighten;
        inline = not no_inline;
        data = not no_data;
        inline_budget_slots = inline_budget;
      }
    in
    let base = ok_or_exit (Pipeline.run_baseline ~engine ~budget prog) in
    let { Pipeline.program = optimized; report; after } =
      Pipeline.optimize ~engine ~knobs ~budget ~base ~summary prog
    in
    (* The artifact is written before the verdict, so a refused result can
       still be inspected. *)
    Option.iter
      (fun path ->
        Crc32.write_file path (Pp_ir.Ir_text.to_string optimized);
        Printf.eprintf "pp: wrote optimized IR to %s\n" path)
      out_file;
    let opt = ok_or_exit after in
    let counter e (r : Interp.result) =
      Option.value ~default:0 (List.assoc_opt e r.Interp.counters)
    in
    let dm_b = counter Event.Dcache_misses base
    and dm_o = counter Event.Dcache_misses opt
    and im_b = counter Event.Icache_misses base
    and im_o = counter Event.Icache_misses opt in
    if json_flag then
      let source = match source with `Cct -> "cct" | `Flat -> "flat" in
      print_endline
        Json.(
          to_string
            (Object
               [ ("source", String source);
                 ("cycles_before", Int base.Interp.cycles);
                 ("cycles_after", Int opt.Interp.cycles);
                 ("dcache_misses_before", Int dm_b);
                 ("dcache_misses_after", Int dm_o);
                 ("icache_misses_before", Int im_b);
                 ("icache_misses_after", Int im_o);
                 ("inlined_sites", Int (List.length report.Pp_opt.Pgo.inlined));
                 ("merged_blocks", Int report.merged_blocks);
                 ("reordered_procs", Int report.reordered_procs);
                 ("moved_globals", Int report.moved_globals);
                 ("data_dropped", Bool report.data_dropped);
                 ("size_before_slots", Int report.size_before_slots);
                 ("size_after_slots", Int report.size_after_slots) ]))
    else begin
      Format.printf "%a@." Pp_opt.Pgo.pp_report report;
      Printf.printf "cycles          %12d -> %-12d (%+.2f%%)\n"
        base.Interp.cycles opt.Interp.cycles
        (100.0
        *. float_of_int (opt.Interp.cycles - base.Interp.cycles)
        /. float_of_int (max 1 base.Interp.cycles));
      Printf.printf "D-cache misses  %12d -> %-12d\n" dm_b dm_o;
      Printf.printf "I-cache misses  %12d -> %-12d\n" im_b im_o
    end;
    if certify then begin
      let c = Pipeline.certify ~engine ~budget optimized in
      List.iter
        (fun (mode, check) ->
          match check with
          | Error msg ->
              Printf.eprintf "pp: certify %s: cannot instrument: %s\n"
                (Instrument.mode_name mode) msg
          | Ok [] -> ()
          | Ok diags ->
              Printf.eprintf "pp: certify %s: %d errors\n"
                (Instrument.mode_name mode) (List.length diags);
              List.iter
                (fun d -> Printf.eprintf "  %s\n" (Pp_ir.Diag.to_string d))
                diags)
        c.Pipeline.checks;
      List.iter
        (fun o ->
          List.iter
            (fun e -> Printf.eprintf "pp: certify predict: %s\n" e)
            (Predict_run.errors o))
        (ok_or_exit c.Pipeline.predictions);
      if Pipeline.certified c then begin
        Printf.printf
          "certified: check, prove and predict pass on the optimized program \
           (all 5 modes)\n";
        0
      end
      else 2
    end
    else 0
  in
  let source =
    Arg.(value & opt source_conv `Cct
         & info [ "source" ] ~docv:"SOURCE"
             ~doc:"Profile information driving the optimizer: 'cct' \
                   (context-sensitive: per-path hardware metrics + calling \
                   context tree) or 'flat' (edge profile only — the \
                   ablation baseline).")
  in
  let out_file =
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"FILE"
             ~doc:"Write the optimized program as textual IR (.ppir), \
                   reloadable by every other subcommand.")
  in
  let certify =
    flag [ "certify" ]
      "After optimizing, re-certify the transformed program: instrument it \
       in all five modes and run the full 'pp check' verifier, the 'pp \
       prove' abstract-interpretation certifier and the 'pp predict' \
       interval re-validation on it.  Exits 2 on any failure."
  in
  let no_layout = flag [ "no-layout" ] "Disable superblock block reordering." in
  let no_split =
    flag [ "no-split" ] "Disable hot/cold splitting (cold blocks stay in place)."
  in
  let no_straighten =
    flag [ "no-straighten" ] "Disable single-predecessor jump-chain merging."
  in
  let no_inline = flag [ "no-inline" ] "Disable hot call-edge inlining." in
  let no_data = flag [ "no-data" ] "Disable global data placement." in
  let inline_budget =
    positive_opt ~default:Pp_opt.Pgo.default_knobs.Pp_opt.Pgo.inline_budget_slots
      [ "inline-budget" ] ~docv:"SLOTS"
      ~doc:"Total instruction slots inlining may copy, program-wide."
  in
  command "optimize" ~doc
    Term.(
      const action $ engine $ budget $ inline_budget $ file $ workload_opt
      $ source $ out_file $ json_report $ certify $ no_layout $ no_split
      $ no_straighten $ no_inline $ no_data)

(* --- pp workloads --- *)

let workloads_cmd =
  let doc = "List the built-in SPEC95-analogue workloads." in
  let action () =
    List.iter
      (fun (w : Pp_workloads.Workload.t) ->
        Printf.printf "%-15s %-13s %s\n" w.Pp_workloads.Workload.name
          w.Pp_workloads.Workload.spec_name
          w.Pp_workloads.Workload.description)
      Registry.all;
    0
  in
  command "workloads" ~doc (Term.const action)

let () =
  let doc =
    "flow and context sensitive profiling with (simulated) hardware \
     performance counters"
  in
  let info = Cmd.info "pp" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
                    [ run_cmd; profile_cmd; paths_cmd; cost_cmd; disasm_cmd;
                      check_cmd; prove_cmd; optimize_cmd; bench_cmd;
                      merge_cmd; serve_cmd; trace_cmd; overhead_cmd;
                      predict_cmd; chaos_cmd; workloads_cmd ]))
