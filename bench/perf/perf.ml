(* perf.exe: the host-time benchmark.  Run from the repository root.

     perf.exe run -w WORKLOAD [--seed N] [--seconds S] [--trace FILE] [-o FILE]
     perf.exe expect
     perf.exe compare BASE_DIR CHANGE_DIR

   See README.md beside this file. *)

open Cmdliner
open Perf_bench
module S = Surface
module W = Workloads

let expected_dir = "bench/perf/expected"

let run_cmd =
  let action workload seed seconds trace_file out =
    match W.find workload with
    | None ->
        Printf.eprintf "perf: unknown workload %S (one of: %s)\n" workload
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
        exit 2
    | Some w ->
        let expected =
          try Expected.load expected_dir
          with Sys_error msg ->
            Printf.eprintf "perf: %s (run from the repository root)\n" msg;
            exit 2
        in
        let r = Runner.run w ~seed ~seconds ~expected ~trace_file in
        Option.iter
          (fun path -> Runner.write_file path (Json.to_string (Runner.to_json r) ^ "\n"))
          out;
        Runner.print r;
        if r.Runner.failed > 0 then exit 1
  in
  let workload =
    Arg.(required & opt (some string) None & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Workload: grid, static, ingest or optimize.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the item order (and, in ingest, the shards).")
  in
  let seconds =
    Arg.(value & opt float 10.0 & info [ "seconds" ] ~docv:"S"
           ~doc:"Keep starting whole passes until this much time has passed.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"After the untraced run, repeat the workload on a trace sink, \
                 write its Chrome JSON to FILE and report per-layer metrics.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Also write every metric to FILE as JSON.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload and print its metrics.")
    Term.(const action $ workload $ seed $ seconds $ trace_file $ out)

(* BENCH_pgo.json's CCT-optimized cycles per program. *)
let pgo_cycles () =
  List.map
    (fun row ->
      ( Json.to_str (Json.member "workload" row),
        int_of_float (Json.to_num (Json.member "cycles_cct" row)) ))
    (Json.to_list (Json.read_file "BENCH_pgo.json"))

let expect_cmd =
  let action () =
    let tr = S.untraced in
    let programs = List.map (fun p -> (p, S.compile tr p)) (S.program_names ()) in
    let errors = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let grid =
      List.concat_map
        (fun (program, prog) ->
          Printf.eprintf "grid %s\n%!" program;
          List.map
            (fun config ->
              let digest engine = W.grid_cell tr ~engine ~program prog config () in
              let key = W.grid_key program config in
              let compiled = digest S.Engine.Compiled in
              let interp = digest S.Engine.Interpreted in
              if compiled <> interp then
                fail "%s: compiled %s, interpreted %s" key compiled interp;
              (key, compiled))
            S.grid_configs)
        programs
    in
    let reference = pgo_cycles () in
    let optimize =
      List.map
        (fun (program, prog) ->
          Printf.eprintf "optimize %s\n%!" program;
          let key = "optimize/" ^ program in
          let o = W.optimize_program tr ~program prog in
          List.iter (fun e -> fail "%s" e) (W.optimize_errors key o);
          (match List.assoc_opt program reference with
          | Some c when c = o.W.opt.S.Interp.cycles -> ()
          | c ->
              fail "%s: %d cycles, BENCH_pgo.json has %s" key o.W.opt.S.Interp.cycles
                (match c with Some c -> string_of_int c | None -> "no row"));
          (key, W.optimize_digest o))
        programs
    in
    match List.rev !errors with
    | [] ->
        let header = "instructions cycles pic0 pic1 md5(output text); written by perf.exe expect" in
        Expected.save ~dir:expected_dir ~file:"grid.txt" ~header grid;
        Expected.save ~dir:expected_dir ~file:"optimize.txt" ~header optimize;
        Printf.printf "wrote %d grid and %d optimize digests to %s\n" (List.length grid)
          (List.length optimize) expected_dir
    | errs ->
        List.iter (fun e -> Printf.eprintf "perf: %s\n" e) errs;
        Printf.eprintf "perf: refusing to write %s\n" expected_dir;
        exit 1
  in
  Cmd.v
    (Cmd.info "expect"
       ~doc:"Regenerate expected/ after checking every grid cell against the \
             interpreter and every optimize result against BENCH_pgo.json.")
    Term.(const action $ const ())

let compare_cmd =
  let action base change =
    print_string (Compare.render (Compare.rows (Compare.load_dir base) (Compare.load_dir change)))
  in
  let dir n docv = Arg.(required & pos n (some dir) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two directories of run results metric by metric.")
    Term.(const action $ dir 0 "BASE_DIR" $ dir 1 "CHANGE_DIR")

let () =
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "perf" ~doc:"The host-time benchmark.")
          [ run_cmd; expect_cmd; compare_cmd ]))
