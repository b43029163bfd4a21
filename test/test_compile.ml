(* Differential certification of the closure-threaded compiled tier.

   The compiled engine ([Pp_vm.Engine.Compiled], the default) must be
   bit-exact with the reference interpreter: same counters, cycles,
   output, profiles, hook observations and traps — including traps that
   land mid-way through a batched block, where the compiled tier replays
   the block's machine events precisely.  Every check below runs the same
   program under both tiers and compares a rendered observation string,
   so a divergence fails with both sides visible. *)

module Engine = Pp_vm.Engine
module Interp = Pp_vm.Interp
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Profile_io = Pp_core.Profile_io
module Cct = Pp_core.Cct
module Event = Pp_machine.Event
module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Trace = Pp_telemetry.Trace

type config = Base | Mode of Instrument.mode

let all_configs = Base :: List.map (fun m -> Mode m) Instrument.all_modes

let config_name = function
  | Base -> "base"
  | Mode m -> Instrument.mode_name m

(* {2 Observations}

   Everything externally visible about a run, rendered to one string:
   outcome (completed or the exact trap message), the full counter set,
   cycles, instructions, emitted output, and — for modes that collect
   one — the serialized profile, edge counts or CCT size.  On a trap the
   counter/output snapshot at the trap point is still compared, which is
   exactly where an imprecise batched tier would diverge. *)

let render_output = function
  | Interp.Oint n -> string_of_int n
  | Interp.Ofloat f -> Printf.sprintf "%h" f

let render_result (r : Interp.result) =
  let counters =
    List.map
      (fun (e, n) -> Printf.sprintf "%s=%d" (Event.name e) n)
      r.Interp.counters
  in
  Printf.sprintf "insts=%d cycles=%d [%s] out=[%s]" r.Interp.instructions
    r.Interp.cycles
    (String.concat " " counters)
    (String.concat ";" (List.map render_output r.Interp.output))

let render_edges session =
  String.concat "\n"
    (List.map
       (fun (proc, _, edges) ->
         Printf.sprintf "%s: %s" proc
           (String.concat ","
              (List.map (fun (_, c) -> string_of_int c) edges)))
       (Driver.edge_profile session))

let render_mode_artifacts mode session =
  match mode with
  | Instrument.Flow_freq | Instrument.Flow_hw | Instrument.Context_flow ->
      let saved = Driver.saved_profile session in
      let cct =
        match mode with
        | Instrument.Context_flow ->
            Printf.sprintf "\ncct-nodes=%d"
              (Cct.num_nodes (Driver.cct session))
        | _ -> ""
      in
      Profile_io.to_string saved ^ cct
  | Instrument.Edge_freq -> render_edges session
  | Instrument.Context_hw ->
      Printf.sprintf "cct-nodes=%d" (Cct.num_nodes (Driver.cct session))

let observe ~budget ~kind ~config prog =
  match config with
  | Base -> (
      let eng = Engine.create ~kind ~max_instructions:budget prog in
      match Engine.run eng with
      | r -> "done " ^ render_result r
      | exception Interp.Trap msg ->
          Printf.sprintf "trap %S %s" msg
            (render_result (Interp.collect_result (Engine.vm eng))))
  | Mode mode -> (
      let s = Driver.prepare ~max_instructions:budget ~engine:kind ~mode prog in
      match Driver.run s with
      | r ->
          Printf.sprintf "done %s\n%s" (render_result r)
            (render_mode_artifacts mode s)
      | exception Interp.Trap msg ->
          Printf.sprintf "trap %S %s" msg
            (render_result (Interp.collect_result s.Driver.vm)))

let check_engines ?(budget = 400_000_000) ~what ~configs prog =
  List.iter
    (fun config ->
      let reference = observe ~budget ~kind:Engine.Interpreted ~config prog in
      let compiled = observe ~budget ~kind:Engine.Compiled ~config prog in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s" what (config_name config))
        reference compiled)
    configs

(* {2 The workload grid}

   All 18 SPEC-shaped workloads under base plus every instrumentation
   mode.  The budget is deliberately small enough that every run traps
   on instruction-budget exhaustion part-way through real work: the
   comparison then covers the trap message {e and} the counter/output
   snapshot at the trap point — the hard case for batched compilation. *)

let workload_budget = 1_000_000

let check_workload name () =
  let w =
    match Registry.find name with
    | Some w -> w
    | None -> Alcotest.failf "unknown workload %s" name
  in
  check_engines ~budget:workload_budget ~what:name ~configs:all_configs
    (W.compile w)

(* {2 The example programs}

   Every MiniC program shipped under [examples/programs/], run to
   completion (except [contexts.mc], large enough that a budget trap is
   the more interesting comparison), with full profile comparison. *)

let examples_dir =
  (* Tests run from [_build/default/test]; walk up to the source tree. *)
  let rec find dir depth =
    let candidate = Filename.concat dir "examples/programs" in
    if Sys.file_exists candidate && Sys.is_directory candidate then
      Some candidate
    else if depth = 0 then None
    else find (Filename.dirname dir) (depth - 1)
  in
  find (Sys.getcwd ()) 6

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_example file () =
  match examples_dir with
  | None -> Alcotest.fail "examples/programs not found above cwd"
  | Some dir ->
      let src = read_file (Filename.concat dir file) in
      let prog = Pp_minic.Compile.program ~name:file src in
      let budget =
        if file = "contexts.mc" then 2_000_000 else 50_000_000
      in
      check_engines ~budget ~what:file ~configs:all_configs prog

let examples =
  [
    "contexts.mc";
    "feasible_demo.mc";
    "hash_probe.mc";
    "lint_demo.mc";
    "lint_params.mc";
    "stencil.mc";
  ]

(* {2 Trap parity}

   Runtime faults must surface with the identical message and identical
   machine state under both tiers.  Division by zero and unaligned /
   out-of-segment accesses abort a batched block part-way through, so
   they exercise the compiled tier's replay path directly. *)

let compile_mc name src = Pp_minic.Compile.program ~name src

let trap_programs =
  [
    ( "div-by-zero",
      "int g;\n\
       void main() { int i; i = 0; while (i < 5) { g = g + i; i = i + 1; }\n\
      \  print(g / (i - 5)); }\n" );
    ( "rem-by-zero",
      "int g;\n\
       void main() { int z; z = 0; g = 7; print(g % z); }\n" );
    ( "oob-store",
      "int arr[4];\n\
       void main() { int i; i = 0;\n\
      \  while (i < 100000) { arr[i] = i; i = i + 1; } print(arr[0]); }\n" );
    ( "oob-load",
      "int arr[4];\n\
       void main() { int i; int s; i = 0; s = 0;\n\
      \  while (i < 100000) { s = s + arr[i]; i = i + 3; } print(s); }\n" );
    ( "stack-overflow",
      "int f(int n) { return f(n + 1); }\n\
       void main() { print(f(0)); }\n" );
  ]

let check_trap (name, src) () =
  check_engines ~budget:10_000_000 ~what:name ~configs:all_configs
    (compile_mc name src)

(* Budget exhaustion at {e every} boundary: sweep the budget over a small
   program so the limit lands on every block of the run at least once,
   including inside what the compiled tier batches.  Both tiers must
   trap at the same instruction with the same snapshot. *)

let budget_sweep_src =
  "int arr[8];\n\
   int f(int a, int b) { if (a < b) { return a * b; } return a - b; }\n\
   void main() { int i; i = 0;\n\
  \  while (i < 6) { arr[i] = f(i, 3); i = i + 1; }\n\
  \  print(arr[0] + arr[5]); }\n"

let test_budget_sweep () =
  let prog = compile_mc "budget-sweep" budget_sweep_src in
  for budget = 1 to 160 do
    List.iter
      (fun config ->
        let reference =
          observe ~budget ~kind:Engine.Interpreted ~config prog
        in
        let compiled = observe ~budget ~kind:Engine.Compiled ~config prog in
        Alcotest.(check string)
          (Printf.sprintf "budget=%d/%s" budget (config_name config))
          reference compiled)
      [ Base; Mode Instrument.Flow_hw ]
  done

(* {2 Hook parity}

   The VM's observation hooks — telemetry counter sampling, statistical
   call-stack sampling, the block-entry probe and the recent-block ring —
   must see the same interleaved history under both tiers.  A batched
   block that skipped or reordered machine events would fire telemetry
   at different simulated cycles, or show the probe stale registers. *)

let hook_src =
  "int arr[16];\n\
   int mix(int a, int b) { return (a * 31 + b) % 1000003; }\n\
   void main() { int i; int acc; i = 0; acc = 1;\n\
  \  while (i < 400) { acc = mix(acc, i); arr[i % 16] = acc; i = i + 1; }\n\
  \  print(acc); }\n"

let test_telemetry_parity () =
  let prog = compile_mc "hooks" hook_src in
  let telemetry kind =
    (* A constant fake clock makes timestamps deterministic, so the full
       event list — including counter values at each simulated-cycle
       firing — is comparable as text. *)
    let trace = Trace.create ~clock:(fun () -> 0.) () in
    let s =
      Driver.prepare ~max_instructions:10_000_000 ~telemetry:trace
        ~telemetry_interval:100 ~engine:kind ~mode:Instrument.Flow_hw prog
    in
    ignore (Driver.run s);
    Trace.to_text trace
  in
  let reference = telemetry Engine.Interpreted in
  let compiled = telemetry Engine.Compiled in
  Alcotest.(check bool) "telemetry fired" true
    (String.length reference > 0);
  Alcotest.(check string) "telemetry events" reference compiled

let test_sampling_parity () =
  let prog = compile_mc "hooks" hook_src in
  let samples kind =
    let vm = Interp.create ~max_instructions:10_000_000 prog in
    Interp.enable_sampling vm ~interval:97;
    ignore (Engine.run (Engine.of_vm ~kind vm));
    List.sort compare (Interp.samples vm)
  in
  let reference = samples Engine.Interpreted in
  Alcotest.(check bool) "samples taken" true (reference <> []);
  Alcotest.(check bool) "sampling parity" true
    (samples Engine.Compiled = reference)

let test_block_probe_parity () =
  let prog = compile_mc "hooks" hook_src in
  let entries kind =
    let vm = Interp.create ~max_instructions:10_000_000 prog in
    let buf = Buffer.create 4096 in
    Interp.set_block_probe vm (fun ~proc ~label ~frame ~iregs ->
        Buffer.add_string buf
          (Printf.sprintf "%s:%d fp=%d [%s]\n" proc label frame
             (String.concat ","
                (Array.to_list (Array.map string_of_int iregs)))));
    ignore (Engine.run (Engine.of_vm ~kind vm));
    Buffer.contents buf
  in
  let reference = entries Engine.Interpreted in
  Alcotest.(check bool) "probe fired" true (String.length reference > 0);
  Alcotest.(check bool) "block probe parity" true
    (entries Engine.Compiled = reference)

let test_block_trace_parity () =
  let prog = compile_mc "hooks" hook_src in
  let recent kind =
    let vm = Interp.create ~max_instructions:10_000_000 prog in
    Interp.enable_block_trace vm ~capacity:64;
    ignore (Engine.run (Engine.of_vm ~kind vm));
    Interp.recent_blocks vm
  in
  let reference = recent Engine.Interpreted in
  Alcotest.(check bool) "trace recorded" true (reference <> []);
  Alcotest.(check bool) "block trace parity" true
    (recent Engine.Compiled = reference)

(* {2 Engine API} *)

let test_engine_api () =
  Alcotest.(check string) "default tier" "compiled"
    (Engine.kind_name Engine.default);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (Engine.kind_name k))
        true
        (Engine.kind_of_string (Engine.kind_name k) = Some k))
    Engine.kinds;
  Alcotest.(check bool) "unknown tier rejected" true
    (Engine.kind_of_string "turbo" = None);
  let prog = compile_mc "api" hook_src in
  let eng = Engine.create ~kind:Engine.Compiled prog in
  Alcotest.(check bool) "kind observable" true
    (Engine.kind eng = Engine.Compiled);
  (* Re-running the same engine value reuses the compiled code and stays
     consistent with a fresh interpreter. *)
  let r1 = Engine.run (Engine.create ~kind:Engine.Compiled prog) in
  let r2 = Engine.run (Engine.create ~kind:Engine.Interpreted prog) in
  Alcotest.(check string) "create/run parity" (render_result r2)
    (render_result r1)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "workload %s: engines agree (all modes)" name)
        `Slow (check_workload name))
    (Registry.names ())
  @ List.map
      (fun file ->
        Alcotest.test_case
          (Printf.sprintf "example %s: engines agree (all modes)" file)
          `Slow (check_example file))
      examples
  @ List.map
      (fun ((name, _) as tp) ->
        Alcotest.test_case
          (Printf.sprintf "trap parity: %s" name)
          `Quick (check_trap tp))
      trap_programs
  @ [
      Alcotest.test_case "budget sweep: trap at every boundary" `Quick
        test_budget_sweep;
      Alcotest.test_case "telemetry parity (interval inside batched blocks)"
        `Quick test_telemetry_parity;
      Alcotest.test_case "sampling parity" `Quick test_sampling_parity;
      Alcotest.test_case "block probe parity" `Quick test_block_probe_parity;
      Alcotest.test_case "block trace parity" `Quick test_block_trace_parity;
      Alcotest.test_case "engine api" `Quick test_engine_api;
    ]
