(* The profile-guided optimizer: unit tests per transform (block
   permutation, straightening, inlining safety and cost model, data
   placement with its empirical guard), an end-to-end check that an
   optimized program still certifies, and a QCheck property that the
   code transforms preserve output, traps and profiles on random
   programs, on both engines. *)

open Pp_ir
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Engine = Pp_vm.Engine
module Profile_io = Pp_core.Profile_io
module Pipeline = Pp_run.Pipeline
module Summary = Pp_opt.Summary
module Reorder = Pp_opt.Reorder
module Inline = Pp_opt.Inline
module Data_layout = Pp_opt.Data_layout
module Pgo = Pp_opt.Pgo

(* --- block permutation --- *)

let test_permute_figure1 () =
  let p = Fixtures.figure1_proc () in
  (* Reverse layout: order.(i) = old label at new position i. *)
  let order = [| 5; 4; 3; 2; 1; 0 |] in
  let q = Reorder.permute p ~order in
  Alcotest.(check int) "block count" 6 (Proc.num_blocks q);
  Alcotest.(check int) "entry follows A" 5 q.Proc.entry;
  (* Old A (label 0) now sits at label 5 and still branches to old C
     (now 3) and old B (now 4). *)
  (match q.Proc.blocks.(5).Block.term with
  | Block.Br (0, 3, 4) -> ()
  | _ -> Alcotest.fail "A's branch was not remapped");
  (* Permuting back restores the original structure. *)
  let r = Reorder.permute q ~order in
  Array.iteri
    (fun i (b : Block.t) ->
      Alcotest.(check (list int))
        (Printf.sprintf "successors of L%d" i)
        (Block.successors p.Proc.blocks.(i))
        (Block.successors b))
    r.Proc.blocks

let test_layout_order () =
  let p = Fixtures.figure1_proc () in
  let weights = [| 10; 0; 5; 8; 0; 7 |] in
  let order =
    Reorder.layout_order ~weights ~hot_path:[ 0; 2; 3; 5 ] ~split_cold:true p
  in
  (* Hot path first, then warm blocks by weight, never-executed last. *)
  Alcotest.(check (list int))
    "hot path leads, cold blocks sink"
    [ 0; 2; 3; 5; 1; 4 ]
    (Array.to_list order)

let test_layout_order_no_split () =
  let p = Fixtures.figure1_proc () in
  let weights = [| 10; 0; 5; 8; 0; 7 |] in
  let order =
    Reorder.layout_order ~weights ~hot_path:[] ~split_cold:false p
  in
  (* Greedy by weight only; entry always first. *)
  Alcotest.(check int) "entry first" 0 order.(0)

(* --- straightening --- *)

let chain_proc () =
  let b =
    Builder.create ~name:"chain" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_int
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  assert (l0 = 0);
  Builder.emit b (Instr.Ibinop_imm (Instr.Add, 1, 0, 1));
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l1;
  Builder.emit b (Instr.Ibinop_imm (Instr.Add, 1, 1, 2));
  Builder.terminate b (Block.Jmp l2);
  Builder.switch_to b l2;
  Builder.terminate b (Block.Ret (Block.Ret_int 1));
  Builder.finish b

let test_straighten_chain () =
  let p, map = Reorder.straighten (chain_proc ()) in
  Alcotest.(check int) "one block remains" 1 (Proc.num_blocks p);
  Alcotest.(check (list int)) "all map to it" [ 0; 0; 0 ]
    (Array.to_list map);
  Alcotest.(check int) "instructions concatenated" 2
    (List.length p.Proc.blocks.(0).Block.instrs)

let test_straighten_diamond_untouched () =
  (* Figure 1 has no single-predecessor Jmp chain: C and E jump into
     merge points. *)
  let p, _ = Reorder.straighten (Fixtures.figure1_proc ()) in
  Alcotest.(check int) "still six blocks" 6 (Proc.num_blocks p)

(* --- inlining: a program with a clean, a stale-register and a wide
   callee --- *)

let ret_int r = Block.Ret (Block.Ret_int r)

let leaf_proc () =
  (* Safe: only reads its parameter. *)
  let b =
    Builder.create ~name:"leaf" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_int
  in
  let _ = Builder.new_block b in
  Builder.emit b (Instr.Ibinop_imm (Instr.Mul, 1, 0, 3));
  Builder.terminate b (ret_int 1);
  Builder.finish b

let stale_proc () =
  (* Reads r1 before writing it: zero in a fresh activation, stale once
     inlined — must be rejected. *)
  let b =
    Builder.create ~name:"stale" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_int
  in
  let _ = Builder.new_block b in
  Builder.emit b (Instr.Ibinop_imm (Instr.Add, 1, 1, 1));
  Builder.terminate b (ret_int 1);
  Builder.finish b

let wide_proc () =
  (* Three arguments: inlining costs more moves than the saved
     call/return fetches. *)
  let b =
    Builder.create ~name:"wide" ~iparams:3 ~fparams:0
      ~returns:Proc.Returns_int
  in
  let _ = Builder.new_block b in
  Builder.emit b (Instr.Ibinop (Instr.Add, 3, 0, 1));
  Builder.emit b (Instr.Ibinop (Instr.Add, 3, 3, 2));
  Builder.terminate b (ret_int 3);
  Builder.finish b

let inline_program () =
  let b =
    Builder.create ~name:"main" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let _ = Builder.new_block b in
  Builder.emit b (Instr.Iconst (0, 7));
  Builder.emit_call b ~callee:"leaf" ~args:[ 0 ] ~fargs:[]
    ~ret:(Instr.Rint 1);
  Builder.emit_call b ~callee:"stale" ~args:[] ~fargs:[]
    ~ret:(Instr.Rint 2);
  Builder.emit_call b ~callee:"wide" ~args:[ 0; 1; 2 ] ~fargs:[]
    ~ret:(Instr.Rint 3);
  Builder.emit b (Instr.Print_int 1);
  Builder.emit b (Instr.Print_int 2);
  Builder.emit b (Instr.Print_int 3);
  Builder.terminate b (Block.Ret Block.Ret_void);
  let main = Builder.finish b in
  Program.make
    ~procs:[ main; leaf_proc (); stale_proc (); wide_proc () ]
    ~globals:[] ~main:"main"

let hot_summary_for prog sites =
  {
    Summary.source = Summary.Context_sensitive;
    procs =
      Array.to_list prog.Program.procs
      |> List.map (fun (p : Proc.t) ->
             ( p.Proc.name,
               {
                 Summary.weights = Array.make (Proc.num_blocks p) 1;
                 hot_path = [];
               } ));
    sites;
    callee_totals = [];
    global_heat = [];
  }

let test_inline_plan_safety () =
  let prog = inline_program () in
  let mk site callee =
    { Summary.caller = "main"; site; callee; calls = 500 }
  in
  let summary =
    hot_summary_for prog [ mk 0 "leaf"; mk 1 "stale"; mk 2 "wide" ]
  in
  let ds =
    Inline.plan ~summary ~max_callee_slots:48 ~min_calls:8
      ~budget_slots:512 prog
  in
  Alcotest.(check (list string))
    "only the clean single-argument callee is inlined" [ "leaf" ]
    (List.map (fun (d : Inline.decision) -> d.Inline.callee) ds)

(* The must-defined check behind inlining safety.  [planned callee] calls
   a one-parameter void callee once, hot, and reports whether the plan
   inlines it: every other filter (size, cost, profiling ops) passes. *)
let planned callee =
  let b =
    Builder.create ~name:"main" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let _ = Builder.new_block b in
  Builder.emit b (Instr.Iconst (0, 7));
  Builder.emit_call b ~callee:callee.Proc.name ~args:[ 0 ] ~fargs:[]
    ~ret:Instr.Rnone;
  Builder.terminate b (Block.Ret Block.Ret_void);
  let prog =
    Program.make ~procs:[ Builder.finish b; callee ] ~globals:[]
      ~main:"main"
  in
  let summary =
    hot_summary_for prog
      [
        {
          Summary.caller = "main";
          site = 0;
          callee = callee.Proc.name;
          calls = 500;
        };
      ]
  in
  Inline.plan ~summary ~max_callee_slots:48 ~min_calls:8 ~budget_slots:512
    prog
  <> []

(* br r0 ? L1 : L2, [def] on L1 (and on L2 when [both]), then [use] at
   the join. *)
let diamond ~both ~def ~use =
  let b =
    Builder.create ~name:"diamond" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  ignore l0;
  Builder.terminate b (Block.Br (0, l1, l2));
  Builder.switch_to b l1;
  Builder.emit b def;
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l2;
  if both then Builder.emit b def;
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l3;
  Builder.emit b use;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

let test_inline_branch_defs () =
  let int_case both =
    planned
      (diamond ~both ~def:(Instr.Iconst (1, 5)) ~use:(Instr.Print_int 1))
  and float_case both =
    planned
      (diamond ~both ~def:(Instr.Fconst (0, 1.5)) ~use:(Instr.Print_float 0))
  in
  Alcotest.(check bool) "int register written on one arm" false
    (int_case false);
  Alcotest.(check bool) "int register written on both arms" true
    (int_case true);
  Alcotest.(check bool) "float register written on one arm" false
    (float_case false);
  Alcotest.(check bool) "float register written on both arms" true
    (float_case true)

(* L0: r2 <- 3 (and r1 <- 0 when [init]); L1: br r2 ? L2 : L3;
   L2: print r1; r1 <- r2; r2 <- r2 - 1; jmp L1.  Without [init] the
   first iteration reads the value the previous one would have left. *)
let counting_loop ~init =
  let b =
    Builder.create ~name:"carried" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  ignore l0;
  Builder.emit b (Instr.Iconst (2, 3));
  if init then Builder.emit b (Instr.Iconst (1, 0));
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l1;
  Builder.terminate b (Block.Br (2, l2, l3));
  Builder.switch_to b l2;
  Builder.emit b (Instr.Print_int 1);
  Builder.emit b (Instr.Imov (1, 2));
  Builder.emit b (Instr.Ibinop_imm (Instr.Sub, 2, 2, 1));
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l3;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

let test_inline_loop_carried () =
  Alcotest.(check bool) "read before the loop writes it" false
    (planned (counting_loop ~init:false));
  Alcotest.(check bool) "initialised before the loop" true
    (planned (counting_loop ~init:true))

let test_inline_apply_preserves_output () =
  let prog = inline_program () in
  let summary = hot_summary_for prog [
    { Summary.caller = "main"; site = 0; callee = "leaf"; calls = 500 } ]
  in
  let ds =
    Inline.plan ~summary ~max_callee_slots:48 ~min_calls:8
      ~budget_slots:512 prog
  in
  Alcotest.(check int) "one decision" 1 (List.length ds);
  let inlined = Inline.apply prog ds in
  Validate.run inlined;
  let out p = (Driver.run_baseline p).Interp.output in
  Alcotest.(check bool) "output preserved" true (out prog = out inlined);
  (* The call is gone from main. *)
  let calls (p : Proc.t) =
    let n = ref 0 in
    Proc.iter_instrs
      (fun _ i -> match i with Instr.Call _ -> incr n | _ -> ())
      p;
    !n
  in
  Alcotest.(check int) "one call fewer in main" 2
    (calls (Program.proc_exn inlined "main"))

(* --- data placement --- *)

let g name size = { Program.gname = name; size_words = size; init = None }

let data_program () =
  let b =
    Builder.create ~name:"main" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let _ = Builder.new_block b in
  Builder.emit b (Instr.Iconst_sym (0, "cold"));
  Builder.emit b (Instr.Load (1, 0, 0));
  Builder.emit b (Instr.Print_int 1);
  Builder.terminate b (Block.Ret Block.Ret_void);
  Program.make
    ~procs:[ Builder.finish b ]
    ~globals:[ g "cold" 4; g "warm" 4; g "hot" 4 ]
    ~main:"main"

let global_names (p : Program.t) =
  Array.to_list p.Program.globals
  |> List.map (fun x -> x.Program.gname)

let test_data_place () =
  let prog = data_program () in
  let heat = [ ("hot", 100); ("warm", 10) ] in
  (* cold and hot swap ends; warm keeps its middle slot. *)
  Alcotest.(check int) "moved" 2 (Data_layout.moved ~heat prog);
  Alcotest.(check (list string))
    "hot first, unmeasured last"
    [ "hot"; "warm"; "cold" ]
    (global_names (Data_layout.place ~heat prog))

let test_data_validate_fallback () =
  let prog = data_program () in
  let summary =
    { (hot_summary_for prog []) with
      Summary.global_heat = [ ("hot", 100) ] }
  in
  let knobs =
    { Pgo.default_knobs with
      Pgo.layout = false; split_cold = false; straighten = false;
      inline = false }
  in
  let kept, r_kept =
    Pgo.optimize ~knobs ~validate:(fun _ -> true) ~summary prog
  in
  Alcotest.(check bool) "accepted placement moves globals" true
    (r_kept.Pgo.moved_globals > 0 && global_names kept <> global_names prog);
  let dropped, r_drop =
    Pgo.optimize ~knobs ~validate:(fun _ -> false) ~summary prog
  in
  Alcotest.(check bool) "rejected placement is dropped" true
    r_drop.Pgo.data_dropped;
  Alcotest.(check (list string))
    "globals untouched" (global_names prog) (global_names dropped)

(* --- end-to-end: optimize a MiniC program, then re-certify --- *)

let hot_src =
  {|
int grid[512];
int acc;

int weigh(int x) { return (x * 3 + 11) % 257; }

void sweep(int lo, int hi) {
  int i;
  for (i = lo; i < hi; i = i + 1) {
    grid[i] = grid[i] + weigh(i);
  }
}

void main() {
  int r;
  acc = 0;
  for (r = 0; r < 40; r = r + 1) { sweep(0, 512); }
  int j;
  for (j = 0; j < 512; j = j + 64) { acc = acc + grid[j]; }
  print(acc);
}
|}

let budget = 400_000_000

let summarize ?(source = `Cct) prog =
  match Pipeline.summarize ~budget ~source prog with
  | Ok summary -> summary
  | Error msg -> Alcotest.failf "summarize: %s" msg

let test_optimize_certifies () =
  let prog = Pp_minic.Compile.program ~name:"hot" hot_src in
  let base = Driver.run_baseline prog in
  let o = Pipeline.optimize ~budget ~base ~summary:(summarize prog) prog in
  Alcotest.(check bool) "something was inlined" true
    (o.Pipeline.report.Pgo.inlined <> []);
  Alcotest.(check bool) "blocks were reordered" true
    (o.Pipeline.report.Pgo.reordered_procs > 0);
  Alcotest.(check bool) "placement kept by the guard" false
    o.Pipeline.report.Pgo.data_dropped;
  (match o.Pipeline.after with
  | Error msg -> Alcotest.failf "re-measure: %s" msg
  | Ok opt ->
      Alcotest.(check bool) "cycles improved" true
        (opt.Interp.cycles < base.Interp.cycles));
  (* The transformed program is an ordinary program: instrumentation in
     every mode still passes the full verifier, the abstract interpreter
     and the measured re-validation of predicted metrics. *)
  let c = Pipeline.certify ~budget o.Pipeline.program in
  List.iter
    (fun (mode, check) ->
      Alcotest.(check (result int string))
        (Instrument.mode_name mode ^ " certifies")
        (Ok 0) (Result.map List.length check))
    c.Pipeline.checks;
  Alcotest.(check bool) "certified" true (Pipeline.certified c)

let test_flat_summary_drives_pipeline () =
  let prog = Pp_minic.Compile.program ~name:"hot" hot_src in
  let summary = summarize ~source:`Flat prog in
  Alcotest.(check bool) "flat source" true
    (summary.Summary.source = Summary.Flat);
  (* Unguarded on purpose: a placement that changes the output must fail
     here rather than be dropped by the validate guard. *)
  let optimized, _ = Pgo.optimize ~summary prog in
  let out p = (Driver.run_baseline p).Interp.output in
  Alcotest.(check bool) "flat-driven output preserved" true
    (out prog = out optimized)

(* --- property: the code transforms preserve behaviour and profiles on
   random programs, both engines, all five modes --- *)

let observe ~kind mode prog =
  let s =
    Driver.prepare ~max_instructions:400_000_000 ~engine:kind ~mode prog
  in
  let tag =
    match Driver.run s with
    | _ -> "done"
    | exception Interp.Trap m -> m
  in
  let r = Interp.collect_result s.Driver.vm in
  let profile =
    match mode with
    | (Instrument.Flow_freq | Instrument.Flow_hw | Instrument.Context_flow)
      when tag = "done" ->
        Profile_io.to_string (Driver.saved_profile s)
    | _ -> ""
  in
  (tag, r.Interp.output, profile)

let traversals prog =
  (* Entry-to-exit plus backedge traversals per procedure: invariant
     under any block permutation. *)
  let s =
    Driver.prepare ~max_instructions:400_000_000
      ~mode:Instrument.Flow_freq prog
  in
  ignore (Driver.run s);
  List.map
    (fun (p : Pp_core.Profile.proc_profile) ->
      ( p.Pp_core.Profile.proc,
        List.fold_left
          (fun acc (_, (m : Pp_core.Profile.path_metrics)) ->
            acc + m.Pp_core.Profile.freq)
          0 p.Pp_core.Profile.paths ))
    (Driver.path_profile s).Pp_core.Profile.procs
  |> List.sort compare

let prop_pgo_transparent =
  QCheck.Test.make
    ~name:
      "random programs: PGO preserves output, traps and profiles (both \
       engines, all modes)"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Test_random_programs.gen_program seed in
      let prog = Pp_minic.Compile.program ~name:"gen" src in
      let base = Driver.run_baseline ~max_instructions:100_000_000 prog in
      (* Even seeds exercise the full pipeline; odd seeds isolate the
         reordering passes (superblock layout + hot/cold splitting). *)
      let knobs =
        if seed mod 2 = 0 then Pgo.default_knobs
        else
          { Pgo.default_knobs with Pgo.inline = false; straighten = false;
            data = false }
      in
      let o =
        Pipeline.optimize ~knobs ~budget:100_000_000 ~base
          ~summary:(summarize prog) prog
      in
      let optimized = o.Pipeline.program in
      (match o.Pipeline.after with
      | Ok _ -> ()
      | Error msg -> QCheck.Test.fail_reportf "PGO: %s:@.%s" msg src);
      if knobs.Pgo.inline = false && traversals optimized <> traversals prog
      then
        QCheck.Test.fail_reportf
          "block permutation changed path traversal counts:@.%s" src;
      List.for_all
        (fun mode ->
          let i = observe ~kind:Engine.Interpreted mode optimized in
          let c = observe ~kind:Engine.Compiled mode optimized in
          let tag, out, _ = i in
          i = c && tag = "done" && out = base.Interp.output)
        Instrument.all_modes)

let suite =
  [
    Alcotest.test_case "permute figure1" `Quick test_permute_figure1;
    Alcotest.test_case "layout order: hot path first, cold sunk" `Quick
      test_layout_order;
    Alcotest.test_case "layout order: greedy without split" `Quick
      test_layout_order_no_split;
    Alcotest.test_case "straighten a jump chain" `Quick
      test_straighten_chain;
    Alcotest.test_case "straighten leaves merge points" `Quick
      test_straighten_diamond_untouched;
    Alcotest.test_case "inline plan: safety and cost model" `Quick
      test_inline_plan_safety;
    Alcotest.test_case "inline plan: branch-local writes are not defined"
      `Quick test_inline_branch_defs;
    Alcotest.test_case "inline plan: loop-carried read rejected" `Quick
      test_inline_loop_carried;
    Alcotest.test_case "inline apply preserves output" `Quick
      test_inline_apply_preserves_output;
    Alcotest.test_case "data placement orders by heat" `Quick
      test_data_place;
    Alcotest.test_case "data placement honours the validate oracle" `Quick
      test_data_validate_fallback;
    Alcotest.test_case "optimized program re-certifies (check + prove)"
      `Slow test_optimize_certifies;
    Alcotest.test_case "flat summary drives the same pipeline" `Quick
      test_flat_summary_drives_pipeline;
    QCheck_alcotest.to_alcotest prop_pgo_transparent;
  ]
