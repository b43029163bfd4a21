(* pp predict: static per-path bounds certified against measured counters. *)

module Predict_run = Pp_run.Predict_run
module Instrument = Pp_instrument.Instrument
module Engine = Pp_vm.Engine
module Driver = Pp_instrument.Driver
module Registry = Pp_workloads.Registry
module Workload = Pp_workloads.Workload
module Predict = Pp_analysis.Predict
module Feasibility = Pp_analysis.Feasibility
module Ball_larus = Pp_core.Ball_larus

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

(* ------------------------------------------------------------------ *)
(* Exact outputs of the static predictor.                              *)

(* Every feasible path of every procedure whose table [pp predict] would
   tabulate (at most the array threshold), as the static bench asks. *)
let tabulated t =
  List.concat_map
    (fun proc ->
      match (Predict.numbering t proc, Predict.feasibility t proc) with
      | Some bl, fs
        when Ball_larus.num_paths bl
             <= Instrument.default_options.Instrument.array_threshold ->
          List.filter
            (fun sum ->
              match fs with
              | Some fs -> Feasibility.feasible fs sum
              | None -> true)
            (List.init (Ball_larus.num_paths bl) Fun.id)
          |> List.map (fun sum -> (proc, sum))
      | _ -> [])
    (Predict.procs t)

let bound_opt = function Some x -> string_of_int x | None -> "inf"

let render_bounds ((proc, sum), (b : Predict.exec_bounds)) =
  let itv (i : Predict.itv) = Printf.sprintf "%d..%s" i.lo (bound_opt i.hi) in
  let m = b.per_exec in
  Printf.sprintf
    "%s %d cycles %s dmiss %s imiss %s stalls %s once %d %d %d %s %b" proc sum
    (itv m.cycles) (itv m.dmiss) (itv m.imiss) (itv m.stalls) b.dmiss_once
    b.imiss_once b.cycles_once
    (match b.header with Some h -> string_of_int h | None -> "-")
    b.to_exit

let render_tail proc (tl : Predict.tail) =
  Printf.sprintf "%s tail %s %s %s %s" proc (bound_opt tl.t_cycles)
    (bound_opt tl.t_dmiss) (bound_opt tl.t_imiss) (bound_opt tl.t_stalls)

let predictor ~mode prog =
  let instrumented, _ =
    Instrument.run ~pruner:Feasibility.pruner ~mode prog
  in
  Predict.create ~original:prog ~instrumented ()

(* Every bound and tail over every workload and mode, hashed.  The digest
   was taken before the must state was kept per cache set and path walks
   shared prefixes; it pins the predictor's exact output. *)
let predict_md5 = "ad1071380caf8ef1cf0d20289151c636"

let test_pinned () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (w : Workload.t) ->
      let prog = Workload.compile w in
      List.iter
        (fun mode ->
          let t = predictor ~mode prog in
          Printf.bprintf buf "%s/%s\n" w.name (Instrument.mode_name mode);
          List.iter
            (fun (proc, sum) ->
              Printf.bprintf buf "%s\n"
                (render_bounds ((proc, sum), Predict.predict t ~proc ~sum)))
            (tabulated t);
          List.iter
            (fun proc ->
              Printf.bprintf buf "%s\n"
                (render_tail proc (Predict.tail_bound t proc)))
            (Predict.procs t))
        Instrument.all_modes)
    Registry.all;
  Alcotest.(check string) "bounds digest" predict_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A walk restarts from the longest prefix it shares with the last walk
   from the same source, so the answers must not depend on the order the
   paths are asked in. *)
let test_order_independent () =
  let prog = workload "go_like" in
  let queries = tabulated (predictor ~mode:Instrument.Flow_hw prog) in
  let shuffled =
    let rng = Random.State.make [| 23 |] in
    List.map (fun q -> (Random.State.bits rng, q)) queries
    |> List.sort compare |> List.map snd
  in
  let answers order =
    let t = predictor ~mode:Instrument.Flow_hw prog in
    List.map
      (fun (proc, sum) -> ((proc, sum), Predict.predict t ~proc ~sum))
      order
    |> List.sort compare |> List.map render_bounds
  in
  let ascending = answers queries in
  Alcotest.(check bool) "many paths" true (List.length queries > 100);
  Alcotest.(check (list string)) "descending" ascending
    (answers (List.rev queries));
  Alcotest.(check (list string)) "shuffled" ascending (answers shuffled)

let suite =
  [
    Alcotest.test_case "soundness: workloads x modes" `Slow test_soundness;
    Alcotest.test_case "soundness: both engines" `Slow test_engines_agree;
    Alcotest.test_case "probed before or after compilation" `Quick
      test_probe_after_compile;
    Alcotest.test_case "demo: hot path exact" `Quick test_demo_exact;
    Alcotest.test_case "demo: injected faults refuted" `Quick test_inject;
    Alcotest.test_case "bounds pinned, workloads x modes" `Slow test_pinned;
    Alcotest.test_case "bounds independent of query order" `Quick
      test_order_independent;
  ]
