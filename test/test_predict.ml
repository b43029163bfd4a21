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
  Alcotest.(check bool) "hot path confirmed" true
    (hot.rverdict = Predict_run.Confirmed)

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

(* The oracle keeps a flat table for a numbering of at most 4096 paths
   and an [Itbl] above it; no registry workload reaches the second.  [f]
   tests 13 bits of its argument, so it has 8192 paths and each of the
   300 calls takes a different one. *)
let wide_program () =
  let bit k =
    Printf.sprintf "  if (x %% 2 == 1) { s = s + %d; }\n  x = x / 2;\n"
      (k + 1)
  in
  Pp_minic.Compile.program ~name:"wide_paths"
    ("int f(int x) {\n  int s;\n  s = 0;\n"
    ^ String.concat "" (List.init 13 bit)
    ^ "  return s;\n}\n\
       void main() {\n\
      \  int i;\n\
      \  int t;\n\
      \  t = 0;\n\
      \  for (i = 0; i < 300; i = i + 1) { t = t + f(i * 27 + 5); }\n\
      \  print(t);\n\
       }\n")

let test_sparse_commits () =
  let prog = wide_program () in
  let run engine = Predict_run.run ~engine ~mode:Instrument.Flow_hw prog in
  let o = run Engine.Compiled in
  check_sound ~ctx:"wide_paths/flow-hw" o;
  let f = List.filter (fun (r : Predict_run.row) -> r.proc = "f") o.rows in
  Alcotest.(check int) "one row per call" 300 (List.length f);
  Alcotest.(check bool) "each path once" true
    (List.for_all (fun (r : Predict_run.row) -> r.freq = 1) f);
  Alcotest.(check bool) "sums past 4096 measured" true
    (List.exists (fun (r : Predict_run.row) -> r.sum >= 4096) f);
  (* The tables differ only in the header line, which names the engine. *)
  let body o =
    let s =
      Format.asprintf "%a" (fun ppf -> Predict_run.render_table ppf) o
    in
    let i = String.index s '\n' in
    String.sub s i (String.length s - i)
  in
  Alcotest.(check string) "engines certify identically"
    (body (run Engine.Interpreted))
    (body o)

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

(* Minor words allocated by [Absint.analyze] (default config, every
   instrumented procedure) and by [Predict.create], summed over the 18
   workloads x 5 modes.  Both keep a value or cache state that a step
   leaves unchanged physically shared instead of rebuilding it, which
   shows in these totals long before it shows in a timing: the bounds are
   the totals measured when the sharing went in, plus 5%.  The figures
   are a property of the code and the compiler, not of the host. *)
let absint_minor_words = 11_380_002.
let predict_minor_words = 21_533_750.

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let test_allocation () =
  let absint = ref 0. and predict = ref 0. in
  let runs =
    List.concat_map
      (fun (w : Workload.t) ->
        let prog = Workload.compile w in
        List.map
          (fun mode ->
            let instrumented, _ =
              Instrument.run ~pruner:Feasibility.pruner ~mode prog
            in
            (prog, instrumented))
          Instrument.all_modes)
      Registry.all
  in
  (* one run first: the shared constant table is built on first use *)
  ignore (predictor ~mode:Instrument.Flow_hw (workload "li_like"));
  List.iter
    (fun (prog, (instrumented : Pp_ir.Program.t)) ->
      let cfgs = Array.map Pp_ir.Cfg.of_proc instrumented.procs in
      let analyze c = ignore (Pp_analysis.Absint.analyze c) in
      absint := !absint +. minor_words (fun () -> Array.iter analyze cfgs);
      predict :=
        !predict
        +. minor_words (fun () ->
               Predict.create ~original:prog ~instrumented ()))
    runs;
  Printf.printf "minor words: Absint.analyze %.0f, Predict.create %.0f\n%!"
    !absint !predict;
  Alcotest.(check int) "90 programs" 90 (List.length runs);
  let within name words pinned =
    if words > pinned *. 1.05 then
      Alcotest.failf "%s allocates %.0f minor words, over %.0f + 5%%" name
        words pinned
  in
  within "Absint.analyze" !absint absint_minor_words;
  within "Predict.create" !predict predict_minor_words

let suite =
  [
    Alcotest.test_case "soundness: workloads x modes" `Slow test_soundness;
    Alcotest.test_case "soundness: both engines" `Slow test_engines_agree;
    Alcotest.test_case "demo: hot path exact" `Quick test_demo_exact;
    Alcotest.test_case "demo: injected faults refuted" `Quick test_inject;
    Alcotest.test_case "sparse commits: a numbering over 4096 paths" `Quick
      test_sparse_commits;
    Alcotest.test_case "bounds pinned, workloads x modes" `Slow test_pinned;
    Alcotest.test_case "bounds independent of query order" `Quick
      test_order_independent;
    Alcotest.test_case "minor words pinned, workloads x modes" `Slow
      test_allocation;
  ]
