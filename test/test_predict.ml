(* pp predict: static per-path bounds certified against measured counters. *)

module Predict_run = Pp_run.Predict_run
module Instrument = Pp_instrument.Instrument
module Engine = Pp_vm.Engine
module Driver = Pp_instrument.Driver
module Registry = Pp_workloads.Registry
module Workload = Pp_workloads.Workload

let budget = 300_000

let workload name =
  match Registry.find name with
  | Some w -> Workload.compile w
  | None -> Alcotest.failf "unknown workload %s" name

let check_sound ~ctx (o : Predict_run.outcome) =
  List.iter
    (fun e -> Printf.eprintf "%s: %s\n%!" ctx e)
    (Predict_run.errors o);
  Printf.eprintf
    "%s: paths %d windows %d confirmed %d vacuous %d refuted %d slack %.2f%s\n%!"
    ctx (List.length o.rows) o.windows o.confirmed o.vacuous o.refuted
    o.mean_slack
    (if o.trapped then " (trapped)" else "");
  Alcotest.(check int) (ctx ^ " refuted") 0 o.refuted;
  Alcotest.(check (list string)) (ctx ^ " anomalies") [] o.anomalies;
  Alcotest.(check bool) (ctx ^ " measured something") true (o.windows > 0)

(* The full acceptance grid: every registry workload under every mode,
   on both engines — zero refuted rows, zero oracle anomalies. *)
let test_soundness () =
  List.iter
    (fun (w : Workload.t) ->
      let prog = Workload.compile w in
      List.iter
        (fun mode ->
          List.iter
            (fun engine ->
              let o = Predict_run.run ~budget ~engine ~mode prog in
              check_sound
                ~ctx:
                  (Printf.sprintf "%s/%s/%s" w.name
                     (Instrument.mode_name mode)
                     (Engine.kind_name engine))
                o)
            Engine.kinds)
        Instrument.all_modes)
    Registry.all

(* The two engines must also certify identically: same paths, same
   measurements, same verdicts. *)
let test_engines_agree () =
  let prog = workload "li_like" in
  List.iter
    (fun mode ->
      let render engine =
        let o = Predict_run.run ~budget ~engine ~mode prog in
        Format.asprintf "%a" (fun ppf -> Predict_run.render_table ppf) o
      in
      let strip s =
        (* The engine name itself differs; compare everything after the
           header line. *)
        match String.index_opt s '\n' with
        | Some i -> String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      Alcotest.(check string)
        (Printf.sprintf "engines certify identically (%s)"
           (Instrument.mode_name mode))
        (strip (render Engine.Interpreted))
        (strip (render Engine.Compiled)))
    Instrument.[ Flow_hw; Context_hw ]

(* The oracle's staged probe does not depend on when the engine
   translated the program: a VM probed after compilation certifies
   exactly like one probed before it. *)
let test_probe_after_compile () =
  let prog = workload "li_like" in
  List.iter
    (fun engine ->
      List.iter
        (fun mode ->
          let render o =
            Format.asprintf "%a" (fun ppf -> Predict_run.render_json ppf) [ o ]
          in
          let before = Predict_run.run ~budget ~engine ~mode prog in
          let session =
            Driver.prepare ~max_instructions:budget ~engine ~mode prog
          in
          Engine.compile session.Driver.engine;
          let after = Predict_run.measure session in
          Alcotest.(check string)
            (Printf.sprintf "probed after compilation (%s, %s)"
               (Engine.kind_name engine) (Instrument.mode_name mode))
            (render before) (render after))
        Instrument.[ Flow_hw; Context_flow ])
    Engine.kinds

(* ------------------------------------------------------------------ *)
(* The demo program: hot-path exactness and fault injection.           *)

let examples_dir =
  let rec find dir n =
    if n = 0 then None
    else
      let candidate = Filename.concat dir "examples/programs" in
      if Sys.file_exists candidate && Sys.is_directory candidate then
        Some candidate
      else find (Filename.dirname dir) (n - 1)
  in
  find (Sys.getcwd ()) 6

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let demo_program () =
  match examples_dir with
  | None -> Alcotest.fail "examples/programs not found above cwd"
  | Some dir ->
      Pp_minic.Compile.program ~name:"predict_demo"
        (read_file (Filename.concat dir "predict_demo.mc"))

let test_demo_exact () =
  let o = Predict_run.run ~mode:Instrument.Context_hw (demo_program ()) in
  (* The rendered table is the shipped golden fixture: the machine is
     deterministic, so the bytes must match exactly. *)
  (match examples_dir with
  | None -> ()
  | Some dir ->
      let golden = read_file (Filename.concat dir "predict_demo.table.golden") in
      let got = Format.asprintf "%a" (fun ppf -> Predict_run.render_table ppf) o in
      Alcotest.(check string) "golden table" golden got);
  check_sound ~ctx:"predict_demo/context-hw" o;
  (* The hot After_backedge path: highest-frequency row.  Its D-miss
     interval must be exact (lo = hi = measured) -- the analysis proved
     both global loads guaranteed hits. *)
  let hot =
    List.fold_left
      (fun acc (r : Predict_run.row) ->
        match acc with
        | Some (b : Predict_run.row) when b.freq >= r.freq -> acc
        | _ -> Some r)
      None o.rows
    |> Option.get
  in
  Alcotest.(check bool) "hot path is hot" true (hot.freq > 100);
  let dmiss =
    List.find (fun (s : Predict_run.mstat) -> s.metric = "dmiss") hot.stats
  in
  Alcotest.(check (option int)) "dmiss hi = lo" (Some dmiss.lo) dmiss.hi;
  Alcotest.(check int) "dmiss measured = lo" dmiss.lo dmiss.measured;
  Alcotest.(check string) "hot path confirmed" "CONFIRMED"
    (Predict_run.verdict_name hot.rverdict)

let test_inject () =
  let prog = demo_program () in
  List.iter
    (fun inj ->
      let o = Predict_run.run ~inject:inj ~mode:Instrument.Context_hw prog in
      Alcotest.(check bool)
        (Printf.sprintf "inject %s refutes" (Predict_run.inject_name inj))
        true (o.refuted > 0);
      Alcotest.(check bool)
        (Printf.sprintf "inject %s located errors" (Predict_run.inject_name inj))
        true
        (Predict_run.errors o <> []);
      Alcotest.(check int)
        (Printf.sprintf "inject %s exit code" (Predict_run.inject_name inj))
        2
        (Predict_run.exit_code [ o ]))
    Predict_run.injects

let suite =
  [
    Alcotest.test_case "soundness: workloads x modes" `Slow test_soundness;
    Alcotest.test_case "soundness: both engines" `Slow test_engines_agree;
    Alcotest.test_case "probed before or after compilation" `Quick
      test_probe_after_compile;
    Alcotest.test_case "demo: hot path exact" `Quick test_demo_exact;
    Alcotest.test_case "demo: injected faults refuted" `Quick test_inject;
  ]
