(* The benchmark harness: regenerates every table and figure of PLDI'97
   plus the DESIGN.md ablations.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- list    -- available targets
     dune exec bench/main.exe -- table1 figure4 ...
     dune exec bench/main.exe -- --jobs 8 table1 table3

   --jobs N runs the underlying workload x configuration matrix through the
   process pool first (N forked workers); the tables then render from the
   prefetched cache, so their bytes are identical to a serial run.        *)

let targets : (string * string * (unit -> unit)) list =
  [
    ("figure1", "edge labelling and path sums (Fig. 1)", Figures.figure1);
    ("figure2", "the labelling phase (Fig. 2)", Figures.figure2);
    ("figure3", "metric instrumentation listing (Fig. 3)", Figures.figure3);
    ("figure4", "DCT vs DCG vs CCT (Fig. 4)", Figures.figure4);
    ("figure5", "recursion backedges (Fig. 5)", Figures.figure5);
    ("figure7", "call records in memory (Figs. 6/7)", Figures.figure7);
    ("table1", "profiling overhead (Table 1)", Tables.table1);
    ("table2", "metric perturbation (Table 2)", Tables.table2);
    ("table3", "CCT statistics (Table 3)", Tables.table3);
    ("table4", "D-cache misses by path (Table 4)", Tables.table4);
    ("table5", "D-cache misses by procedure (Table 5)", Tables.table5);
    ("implications", "paths through hot blocks (6.4.3)", Tables.implications);
    ("ablation_hash", "A1: array vs hash counters", Ablations.ablation_hash);
    ("ablation_sites", "A2: call-site discrimination",
     Ablations.ablation_sites);
    ( "ablation_saverestore",
      "A3: save/restore placement",
      Ablations.ablation_saverestore );
    ("ablation_backedge", "A4: backedge reads", Ablations.ablation_backedge);
    ( "ablation_placement",
      "simple vs chord placement",
      Ablations.ablation_placement );
    ( "ablation_edge",
      "edge vs path profiling overhead (BL94)",
      Ablations.ablation_edge );
    ("estimator", "static probe-cost estimates vs measured", Estimator.run);
    ("sampling", "stack sampling vs CCT (7.2)", Sampling.run);
    ("hall", "Hall iterative call-path profiling vs CCT (7.2)", Hall.run);
    ( "serve",
      "sampled accuracy vs overhead frontier (writes BENCH_serve.json)",
      Serve.run );
    ( "pgo",
      "profile-guided optimization payoff, CCT vs flat (writes \
       BENCH_pgo.json)",
      Pgo.run );
  ]

let list_targets () =
  print_endline "targets:";
  List.iter
    (fun (name, doc, _) -> Printf.printf "  %-22s %s\n" name doc)
    targets

(* Strip --jobs N (or --jobs=N) from the argument list. *)
let rec parse_jobs = function
  | [] -> (1, [])
  | "--jobs" :: n :: rest | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some jobs ->
          let _, names = parse_jobs rest in
          (jobs, names)
      | None ->
          Printf.eprintf "--jobs expects a number, got %S\n" n;
          exit 1)
  | [ "--jobs" ] | [ "-j" ] ->
      Printf.eprintf "--jobs expects a number\n";
      exit 1
  | arg :: rest ->
      let jobs, names = parse_jobs rest in
      (jobs, arg :: names)

let () =
  let jobs, args = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  if jobs > 1 then Runs.prefetch ~jobs (Runs.full_grid ());
  match args with
  | [ "list" ] -> list_targets ()
  | [] ->
      print_endline
        "Reproducing the tables and figures of 'Exploiting Hardware \
         Performance Counters with Flow and Context Sensitive Profiling' \
         (PLDI 1997) on the simulated UltraSPARC.";
      List.iter (fun (_, _, f) -> f ()) targets
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) targets with
          | Some (_, _, f) -> f ()
          | None ->
              Printf.eprintf "unknown target %S; try 'list'\n" name;
              exit 1)
        names
