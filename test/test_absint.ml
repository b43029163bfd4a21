(* The abstract-interpretation certifier (`pp prove`), attacked from four
   sides: domain algebra unit tests, zero false alarms on everything the
   instrumenter legitimately produces, seeded violations that must be
   flagged, and a runtime soundness oracle that checks VM-observed register
   values against the derived intervals on every executed block. *)

open Pp_ir
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Verifier = Pp_analysis.Verifier
module Absint = Pp_analysis.Absint
module Interval = Pp_analysis.Interval
module Congruence = Pp_analysis.Congruence
module Taint = Pp_analysis.Taint
module Constprop = Pp_analysis.Constprop
module Feasibility = Pp_analysis.Feasibility
module Registry = Pp_workloads.Registry
module Workload = Pp_workloads.Workload
module Pipeline = Pp_run.Pipeline
module Matrix = Pp_run.Matrix
module I = Instr

(* ---- domain unit tests ---- *)

let itv = Alcotest.testable Interval.pp Interval.equal
let cong = Alcotest.testable Congruence.pp Congruence.equal

let test_interval_algebra () =
  let mk = Interval.make in
  Alcotest.check itv "join" (mk 0 9) (Interval.join (mk 0 3) (mk 5 9));
  Alcotest.check itv "add" (mk 5 30)
    (Interval.binop ~no_wrap:true I.Add (mk 0 10) (mk 5 20));
  (* any possible concrete overflow collapses to top: saturation would be
     unsound under the VM's wrapping arithmetic *)
  let wide, ok =
    Interval.binop_report I.Add (mk 0 max_int) (mk 0 1)
  in
  Alcotest.check itv "add overflow" Interval.top wide;
  Alcotest.(check bool) "overflow reported" false ok;
  let prod, ok = Interval.binop_report I.Mul (mk 0 5) (mk 0 24) in
  Alcotest.check itv "mul" (mk 0 120) prod;
  Alcotest.(check bool) "mul no-wrap" true ok;
  Alcotest.check itv "shl as mul" (mk 0 80)
    (Interval.binop ~no_wrap:true I.Shl (mk 0 10) (Interval.const 3));
  Alcotest.check itv "shr" (mk 1 4)
    (Interval.binop ~no_wrap:true I.Shr (mk 8 32) (Interval.const 3));
  (* min_int / -1 wraps on the VM, so a divisor interval containing -1
     with min_int possible must not stay precise *)
  let d, _ =
    Interval.binop_report I.Div (mk min_int 0) (mk (-1) 1)
  in
  Alcotest.check itv "min_int / -1" Interval.top d;
  Alcotest.check itv "rem bound" (mk 0 9)
    (Interval.binop ~no_wrap:true I.Rem (mk 0 100) (Interval.const 10));
  Alcotest.check itv "cmp decided" (Interval.const 1)
    (Interval.cmp I.Lt (mk 0 3) (mk 5 9));
  Alcotest.check itv "cmp open" (mk 0 1)
    (Interval.cmp I.Lt (mk 0 6) (mk 5 9))

let test_interval_widen () =
  let mk = Interval.make in
  let w = Interval.widen (mk 0 10) (mk 0 16) in
  Alcotest.(check int) "stable bound kept" 0 (Interval.lo w);
  Alcotest.(check int) "moving bound gone" max_int (Interval.hi w);
  (* widening chains terminate: a second widening of a grown result is a
     fixpoint *)
  Alcotest.check itv "idempotent at top"
    (Interval.widen w (Interval.join w (mk (-5) 20)))
    (Interval.widen (Interval.widen w (Interval.join w (mk (-5) 20)))
       (Interval.join w (mk (-5) 20)))

let test_congruence_algebra () =
  let c = Congruence.const in
  (* join of distinct constants keeps the stride *)
  let j = Congruence.join (c 0) (c 24) in
  Alcotest.(check bool) "0 join 24 is 24-aligned" true
    (Congruence.divides 24 j);
  Alcotest.(check bool) "0 join 24 is 8-aligned" true (Congruence.divides 8 j);
  Alcotest.(check bool) "0 join 24 not 16-aligned" false
    (Congruence.divides 16 j);
  (* the table-offset idiom: unknown * 24 is still 8-byte aligned *)
  let off =
    Congruence.binop ~no_wrap:true I.Mul Congruence.top (c 24)
  in
  Alcotest.(check bool) "T * 24 divisible by 24" true
    (Congruence.divides 24 off);
  let sum = Congruence.binop ~no_wrap:true I.Add off (c 16) in
  Alcotest.(check bool) "24k + 16 is 8-aligned" true (Congruence.divides 8 sum);
  Alcotest.(check bool) "24k + 16 not 24-aligned" false
    (Congruence.divides 24 sum);
  (* without the no-wrap promise everything but const folding is top *)
  Alcotest.check cong "no promise, no fact" Congruence.top
    (Congruence.binop ~no_wrap:false I.Mul Congruence.top (c 24));
  (* const-const folding is the VM's own wrapping arithmetic *)
  Alcotest.check cong "wrapping fold"
    (c (max_int + max_int))
    (Congruence.binop ~no_wrap:false I.Add (c max_int) (c max_int));
  Alcotest.check cong "shl fold" (c 40)
    (Congruence.binop ~no_wrap:false I.Shl (c 5) (c 3))

(* ---- zero false alarms ---- *)

let prove ?(options = Instrument.default_options) ~mode prog =
  let instrumented, manifest =
    Instrument.run ~options ~pruner:Feasibility.pruner ~mode prog
  in
  (instrumented, manifest,
   Verifier.prove_program ~original:prog ~manifest instrumented)

(* The mutation-test program: an acyclic branchy procedure and a loop,
   called from main — forward increments, backedge commits and return
   commits all present. *)
let branchy_program () =
  let main =
    let b =
      Builder.create ~name:"main" ~iparams:0 ~fparams:0
        ~returns:Proc.Returns_void
    in
    ignore (Builder.new_block b);
    let r = Builder.new_ireg b in
    Builder.emit b (Instr.Iconst (r, 3));
    Builder.emit_call b ~callee:"fig1" ~args:[ r ] ~fargs:[]
      ~ret:Instr.Rnone;
    Builder.emit_call b ~callee:"loop" ~args:[ r ] ~fargs:[]
      ~ret:Instr.Rnone;
    Builder.terminate b (Block.Ret Block.Ret_void);
    Builder.finish b
  in
  Program.make
    ~procs:[ main; Fixtures.figure1_proc (); Fixtures.loop_proc () ]
    ~globals:[] ~main:"main"

let check_clean ~what diags =
  match diags with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "%s: false alarm: %s (%d total)" what (Diag.to_string d)
        (List.length diags)

let test_no_false_alarms_fixture () =
  let prog = branchy_program () in
  List.iter
    (fun mode ->
      let _, _, diags = prove ~mode prog in
      check_clean ~what:(Instrument.mode_name mode) diags)
    Instrument.all_modes

let test_no_false_alarms_options () =
  let prog = branchy_program () in
  let variants =
    [
      ("optimized", { Instrument.default_options with
                      Instrument.optimize_placement = true });
      ("caller-saves", { Instrument.default_options with
                         Instrument.caller_saves = true });
      ("backedge-reads", { Instrument.default_options with
                           Instrument.backedge_metric_reads = true });
      (* force the path register into a frame slot everywhere: exercises
         the strong-update/escape-hull tracking *)
      ("spilled", { Instrument.default_options with
                    Instrument.spill_threshold = 0 });
    ]
  in
  List.iter
    (fun (name, options) ->
      List.iter
        (fun mode ->
          let _, _, diags = prove ~options ~mode prog in
          check_clean
            ~what:(name ^ "/" ^ Instrument.mode_name mode)
            diags)
        Instrument.all_modes)
    variants

let test_no_false_alarms_workloads () =
  List.iter
    (fun wname ->
      let prog =
        Workload.compile (Option.get (Registry.find wname))
      in
      List.iter
        (fun mode ->
          let _, _, diags = prove ~mode prog in
          check_clean
            ~what:(wname ^ "/" ^ Instrument.mode_name mode)
            diags)
        Instrument.all_modes)
    [ "compress_like"; "go_like"; "perl_like" ]

(* ---- seeded violations ---- *)

let expect_flagged ~what diags =
  match diags with
  | [] -> Alcotest.failf "%s: seeded violation not flagged" what
  | diags ->
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.severity <> Diag.Error then
            Alcotest.failf "%s: non-error diagnostic %S" what d.Diag.message)
        diags

(* The certifier's own seeded violations (what 'pp prove --inject' runs):
   a counter table shrunk by one word, and the path location copied into
   an original register. *)
let mutate kind ~original instrumented manifest =
  match Pipeline.inject kind ~original ~manifest instrumented with
  | Ok mutant -> mutant
  | Error msg -> Alcotest.failf "nothing to mutate: %s" msg

(* Bump one path-register edge increment: commit sums now exceed the
   table.  [None] when no procedure keeps its path in a register. *)
let bumped_increment prog (manifest : Instrument.manifest) =
  let victims =
    List.filter_map
      (fun (info : Instrument.proc_info) ->
        match info.Instrument.path_loc with
        | Some (Pp_instrument.Path_instr.Path_reg r) ->
            Some (info.Instrument.proc, r)
        | _ -> None)
      manifest.Instrument.infos
  in
  let bumped = ref false in
  let procs =
    Array.to_list prog.Program.procs
    |> List.map (fun (p : Proc.t) ->
           match List.assoc_opt p.Proc.name victims with
           | None -> p
           | Some preg ->
               let blocks =
                 Array.map
                   (fun (b : Block.t) ->
                     let instrs =
                       List.map
                         (fun instr ->
                           match instr with
                           | Instr.Ibinop_imm (I.Add, rd, rs, k)
                             when rd = preg && rs = preg && not !bumped ->
                               bumped := true;
                               Instr.Ibinop_imm (I.Add, rd, rs, k + 1_000)
                           | i -> i)
                         b.Block.instrs
                     in
                     { b with Block.instrs })
                   p.Proc.blocks
               in
               Proc.with_blocks p blocks)
  in
  if not !bumped then None
  else
    Some
      (Program.make ~procs
         ~globals:(Array.to_list prog.Program.globals)
         ~main:prog.Program.main)

let bump_increment prog manifest =
  match bumped_increment prog manifest with
  | Some mutant -> mutant
  | None -> Alcotest.fail "no path-register increment to bump"

let test_seeded_bounds () =
  let prog = branchy_program () in
  let instrumented, manifest, clean = prove ~mode:Instrument.Flow_hw prog in
  check_clean ~what:"pre-mutation" clean;
  let mutant = mutate Pipeline.Bounds ~original:prog instrumented manifest in
  expect_flagged ~what:"shrunk table"
    (Verifier.prove_program ~original:prog ~manifest mutant)

let test_seeded_taint () =
  let prog = branchy_program () in
  let instrumented, manifest, clean = prove ~mode:Instrument.Flow_hw prog in
  check_clean ~what:"pre-mutation" clean;
  let mutant = mutate Pipeline.Taint ~original:prog instrumented manifest in
  expect_flagged ~what:"path leak"
    (Verifier.prove_program ~original:prog ~manifest mutant);
  (* the spilled variant leaks through a frame-slot load instead *)
  let options =
    { Instrument.default_options with Instrument.spill_threshold = 0 }
  in
  let instrumented, manifest, clean =
    prove ~options ~mode:Instrument.Flow_hw prog
  in
  check_clean ~what:"pre-mutation (spilled)" clean;
  let mutant = mutate Pipeline.Taint ~original:prog instrumented manifest in
  expect_flagged ~what:"spilled path leak"
    (Verifier.prove_program ~original:prog ~manifest mutant)

let test_seeded_increment () =
  let prog = branchy_program () in
  let instrumented, manifest, clean = prove ~mode:Instrument.Flow_hw prog in
  check_clean ~what:"pre-mutation" clean;
  let mutant = bump_increment instrumented manifest in
  expect_flagged ~what:"bumped increment"
    (Verifier.prove_program ~original:prog ~manifest mutant)

(* ---- the certifier's analyses ---- *)

(* Every instrumented procedure's abstract interpretation, configured as
   the certifier configures it: (procedure, config, analysis). *)
let certifier_analyses ~budget ~original ~instrumented
    (manifest : Instrument.manifest) =
  let infos = Array.of_list manifest.Instrument.infos in
  Array.to_list
    (Array.mapi
       (fun i (op : Proc.t) ->
         let ip = instrumented.Program.procs.(i) in
         let info = infos.(i) in
         let state = Instrument.state ~original:op ~instrumented:ip info in
         let policy = Taint.of_state state in
         let tables =
           match info.Instrument.table with
           | Instrument.Array_table { global; _ }
           | Instrument.Edge_table { global; _ } -> (
               match Program.find_global instrumented global with
               | Some g -> [ (global, g.Program.size_words) ]
               | None -> [])
           | _ -> []
         in
         let conf = Absint.config ~budget ~policy ~tables () in
         (ip, conf, Absint.analyze ~conf (Cfg.of_proc ip)))
       original.Program.procs)

let each_workload_mode f =
  List.iter
    (fun (w : Workload.t) ->
      let prog = Workload.compile w in
      List.iter
        (fun mode ->
          let instrumented, manifest =
            Instrument.run ~pruner:Feasibility.pruner ~mode prog
          in
          f
            (Printf.sprintf "%s/%s" w.Workload.name (Instrument.mode_name mode))
            prog instrumented manifest)
        Instrument.all_modes)
    Registry.all

(* The fixpoint's environment at the entry of block [l], read through the
   block walk: a copy of the state before the first instruction, or
   before the terminator of an empty block. *)
let entry_env t l =
  let copy (env : Absint.env) : Absint.env =
    Marshal.from_string (Marshal.to_string env []) 0
  in
  let first = ref None in
  match
    Absint.iter_block t l (fun ~pos env _ ->
        if pos = 0 then first := Some (copy env))
  with
  | None -> None
  | Some last -> Some (Option.value ~default:last !first)

(* A block walk transfers one private copy of the entry in place: the
   stored entry must come out untouched, and the walk must see exactly
   what a fold of the pure [transfer] computes, before and after every
   instruction. *)
let test_block_walk_private () =
  let image env = Marshal.to_string env [ Marshal.No_sharing ] in
  each_workload_mode (fun what prog instrumented manifest ->
      List.iter
        (fun ((ip : Proc.t), conf, t) ->
          Array.iter
            (fun (b : Block.t) ->
              let l = b.Block.label in
              let where = Printf.sprintf "%s %s/L%d" what ip.Proc.name l in
              match entry_env t l with
              | None ->
                  if Absint.iter_block t l (fun ~pos:_ _ _ -> ()) <> None then
                    Alcotest.failf "%s: unreached block replayed" where
              | Some entry ->
                  let before = image entry in
                  let pure = ref entry in
                  let same ~pos ~phase env =
                    if image env <> image !pure then
                      Alcotest.failf "%s: %s instruction %d differs from \
                                      the pure transfer"
                        where phase pos
                  in
                  let last =
                    Absint.iter_block t l
                      ~post:(fun ~pos env instr ->
                        pure := Absint.transfer conf !pure instr;
                        same ~pos ~phase:"after" env)
                      (fun ~pos env _ -> same ~pos ~phase:"before" env)
                  in
                  (match last with
                  | Some env when image env = image !pure -> ()
                  | _ ->
                      Alcotest.failf "%s: returned environment differs" where);
                  if Option.map image (entry_env t l) <> Some before then
                    Alcotest.failf "%s: the walk mutated the stored entry"
                      where)
            ip.Proc.blocks)
        (certifier_analyses ~budget:Matrix.default_budget ~original:prog
           ~instrumented manifest))

(* The certifier's findings — none on clean instrumentation, the seeded
   violations' on mutants — over every workload and mode, as rendered
   and ordered, hashed.  The digest was taken before block walks
   transferred in place and the check pass read its post-states from the
   walk; it pins the exact diagnostics. *)
let prove_diagnostics_md5 = "6eee4cec310de8e382b3bee370999097"

let test_prove_diagnostics_pinned () =
  let buf = Buffer.create 4096 in
  let emit what diags =
    Printf.bprintf buf "%s %d\n" what (List.length diags);
    List.iter (fun d -> Printf.bprintf buf "%s\n" (Diag.to_string d)) diags
  in
  each_workload_mode (fun what prog instrumented manifest ->
      let prove p = Verifier.prove_program ~original:prog ~manifest p in
      emit what (prove instrumented);
      List.iter
        (fun (name, kind) ->
          match Pipeline.inject kind ~original:prog ~manifest instrumented with
          | Ok mutant -> emit (what ^ " " ^ name) (prove mutant)
          | Error msg -> Printf.bprintf buf "%s %s: %s\n" what name msg)
        [ ("bounds", Pipeline.Bounds); ("taint", Pipeline.Taint) ];
      match bumped_increment instrumented manifest with
      | Some mutant -> emit (what ^ " increment") (prove mutant)
      | None -> Printf.bprintf buf "%s increment: none\n" what);
  Alcotest.(check string) "diagnostics digest" prove_diagnostics_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---- runtime soundness oracle ---- *)

(* Execute a workload with a block-entry probe that checks every VM
   register value against the abstract value the certifier derived for
   that block's entry.  A single admits failure disproves soundness. *)
let oracle_run ~mode ~max_instructions wname =
  let prog = Workload.compile (Option.get (Registry.find wname)) in
  let session =
    Driver.prepare ~pruner:Feasibility.pruner ~max_instructions ~mode prog
  in
  let analyses = Hashtbl.create 16 in
  List.iter
    (fun ((ip : Proc.t), _, t) -> Hashtbl.replace analyses ip.Proc.name t)
    (certifier_analyses ~budget:max_instructions
       ~original:session.Driver.original
       ~instrumented:session.Driver.instrumented session.Driver.manifest);
  let layout = Interp.layout session.Driver.vm in
  let global_base g =
    match Layout.global_addr layout g with
    | addr -> Some addr
    | exception _ -> None
  in
  let failure = ref None in
  let entries = Hashtbl.create 256 in
  let entry t proc label =
    match Hashtbl.find_opt entries (proc, label) with
    | Some e -> e
    | None ->
        let e = entry_env t label in
        Hashtbl.replace entries (proc, label) e;
        e
  in
  Interp.set_block_probe session.Driver.vm
    (fun ~proc ~label -> fun ~frame ~iregs ->
      if !failure = None then
        match Hashtbl.find_opt analyses proc with
        | None -> failure := Some (Printf.sprintf "unknown procedure %s" proc)
        | Some t -> (
            match entry t proc label with
            | None ->
                failure :=
                  Some
                    (Printf.sprintf "%s/L%d executed but unreached" proc label)
            | Some env ->
                Array.iteri
                  (fun r x ->
                    let v = Absint.ireg env r in
                    if not (Absint.admits ~global_base ~frame v x) then
                      failure :=
                        Some
                          (Format.asprintf
                             "%s/L%d: r%d = %d outside derived %a" proc label
                             r x Absint.pp_value v))
                  iregs));
  (* hitting the instruction budget is fine: every executed block was
     still checked *)
  (match Driver.run session with
  | _ -> ()
  | exception Interp.Trap msg ->
      let budgeted =
        let n = String.length msg and m = String.length "budget" in
        let rec scan i =
          i + m <= n && (String.sub msg i m = "budget" || scan (i + 1))
        in
        scan 0
      in
      if not budgeted then
        Alcotest.failf "oracle (%s, %s): unexpected trap: %s" wname
          (Instrument.mode_name mode) msg);
  match !failure with
  | None -> ()
  | Some msg ->
      Alcotest.failf "oracle (%s, %s): %s" wname
        (Instrument.mode_name mode) msg

let test_oracle_registry () =
  List.iter
    (fun (w : Workload.t) ->
      oracle_run ~mode:Instrument.Flow_hw ~max_instructions:200_000
        w.Workload.name)
    Registry.all

let test_oracle_all_modes () =
  List.iter
    (fun wname ->
      List.iter
        (fun mode -> oracle_run ~mode ~max_instructions:150_000 wname)
        Instrument.all_modes)
    [ "compress_like"; "li_like" ]

(* ---- differential: constprop vs the VM ---- *)

(* Random straight-line arithmetic; every register printed at the end.
   Wherever the constant-propagation fixpoint claims a constant, the VM
   must print exactly that value.  (Top claims nothing and is always
   acceptable; Div/Rem are excluded so no mutant traps.) *)
let gen_straightline seed =
  let rng = Random.State.make [| seed |] in
  let b =
    Builder.create ~name:"main" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
  in
  ignore (Builder.new_block b);
  let regs = Array.init 4 (fun _ -> Builder.new_ireg b) in
  let any () = regs.(Random.State.int rng (Array.length regs)) in
  Array.iter
    (fun r ->
      Builder.emit b (Instr.Iconst (r, Random.State.int rng 201 - 100)))
    regs;
  let ops = [| I.Add; I.Sub; I.Mul; I.And; I.Or; I.Xor; I.Shl; I.Shr |] in
  let cmps = [| I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge |] in
  for _ = 1 to 12 do
    let rd = any () and rs = any () and rt = any () in
    match Random.State.int rng 5 with
    | 0 -> Builder.emit b (Instr.Iconst (rd, Random.State.int rng 2001 - 1000))
    | 1 -> Builder.emit b (Instr.Imov (rd, rs))
    | 2 ->
        Builder.emit b
          (Instr.Ibinop
             (ops.(Random.State.int rng (Array.length ops)), rd, rs, rt))
    | 3 ->
        Builder.emit b
          (Instr.Ibinop_imm
             ( ops.(Random.State.int rng (Array.length ops)),
               rd,
               rs,
               Random.State.int rng 64 ))
    | _ ->
        Builder.emit b
          (Instr.Icmp
             (cmps.(Random.State.int rng (Array.length cmps)), rd, rs, rt))
  done;
  Array.iter (fun r -> Builder.emit b (Instr.Print_int r)) regs;
  Builder.terminate b (Block.Ret Block.Ret_void);
  (Builder.finish b, Array.to_list regs)

let prop_constprop_agrees =
  QCheck.Test.make ~name:"constprop constants match the VM" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let proc, regs = gen_straightline seed in
      let prog = Program.make ~procs:[ proc ] ~globals:[] ~main:"main" in
      let printed =
        match Interp.run (Interp.create prog) with
        | r ->
            List.filter_map
              (function Interp.Oint n -> Some n | Interp.Ofloat _ -> None)
              r.Interp.output
        | exception Interp.Trap _ -> []
      in
      match printed with
      | [] -> true (* trapped: nothing to compare *)
      | printed ->
          let cfg = Cfg.of_proc proc in
          let cp = Constprop.analyze cfg in
          let exit_vals =
            Option.get (Constprop.exit_state cp proc.Proc.entry)
          in
          List.for_all2
            (fun r printed ->
              match exit_vals.(r) with
              | Constprop.Const c -> c = printed
              | Constprop.Top -> true)
            regs printed)

let suite =
  [
    Alcotest.test_case "interval: algebra" `Quick test_interval_algebra;
    Alcotest.test_case "interval: widening" `Quick test_interval_widen;
    Alcotest.test_case "congruence: algebra" `Quick test_congruence_algebra;
    Alcotest.test_case "prove: fixture clean, all modes" `Quick
      test_no_false_alarms_fixture;
    Alcotest.test_case "prove: option variants clean" `Quick
      test_no_false_alarms_options;
    Alcotest.test_case "prove: workloads clean, all modes" `Slow
      test_no_false_alarms_workloads;
    Alcotest.test_case "prove: shrunk table flagged" `Quick
      test_seeded_bounds;
    Alcotest.test_case "prove: path leak flagged" `Quick test_seeded_taint;
    Alcotest.test_case "prove: bumped increment flagged" `Quick
      test_seeded_increment;
    Alcotest.test_case "prove: diagnostics pinned, workloads x modes" `Slow
      test_prove_diagnostics_pinned;
    Alcotest.test_case "iter_block: private copy, equals pure transfer" `Slow
      test_block_walk_private;
    Alcotest.test_case "oracle: registry, flow-hw" `Slow
      test_oracle_registry;
    Alcotest.test_case "oracle: two workloads, all modes" `Slow
      test_oracle_all_modes;
    QCheck_alcotest.to_alcotest prop_constprop_agrees;
  ]
