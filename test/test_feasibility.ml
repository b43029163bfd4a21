(* The PR-3 analyzer stack: conditional constant propagation, static path
   feasibility, the frequency estimator, the cost report — and the one
   property everything hangs on: a path judged statically infeasible is
   NEVER observed in a dynamic profile, in any instrumentation mode. *)

module Digraph = Pp_graph.Digraph
module Cfg = Pp_ir.Cfg
module Block = Pp_ir.Block
module Instr = Pp_ir.Instr
module Proc = Pp_ir.Proc
module Program = Pp_ir.Program
module Builder = Pp_ir.Builder
module Ball_larus = Pp_core.Ball_larus
module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Constprop = Pp_analysis.Constprop
module Feasibility = Pp_analysis.Feasibility
module Freq = Pp_analysis.Freq
module Cost = Pp_analysis.Cost
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver

let check = Alcotest.check

(* L0: r1 <- 5; br r1 (L1 | L2); L1 -> L3; L2 -> L3; L3: ret.
   The else arm is statically dead. *)
let constant_branch_proc () =
  let b =
    Builder.create ~name:"cbr" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  assert (l0 = 0);
  Builder.emit b (Instr.Iconst (1, 5));
  Builder.terminate b (Block.Br (1, l1, l2));
  Builder.switch_to b l1;
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l2;
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l3;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

(* The feasible_demo work() shape: two branches on the same derived value.
   Of the four arm combinations only then/then and else/else can run. *)
let correlated_src =
  "int work(int a) {\n\
  \  int t;\n\
  \  if (a > 0) { t = 1; } else { t = 0; }\n\
  \  if (t > 0) { print(a); } else { print(0 - a); }\n\
  \  return t;\n\
   }\n\
   void main() {\n\
  \  print(work(3));\n\
  \  print(work(0 - 2));\n\
   }\n"

(* {2 Constant propagation} *)

let test_constprop_constant_branch () =
  let cfg = Cfg.of_proc (constant_branch_proc ()) in
  let cp = Constprop.analyze cfg in
  check Alcotest.bool "then arm reached" true (Constprop.reachable cp 1);
  check Alcotest.bool "else arm dead" false (Constprop.reachable cp 2);
  (match Constprop.branch_value cp 0 with
  | Some (Constprop.Const 5) -> ()
  | _ -> Alcotest.fail "branch value should be Const 5");
  let dead_edges =
    Digraph.fold_edges
      (fun e acc -> if Constprop.edge_executable cp e then acc else e :: acc)
      cfg.Cfg.graph []
  in
  (* The false arm itself, plus the dead block's own out-edge. *)
  check Alcotest.int "false arm and its successor edge are dead" 2
    (List.length dead_edges);
  check Alcotest.bool "one dead edge is the Branch_false" true
    (List.exists
       (fun (e : Digraph.edge) -> Cfg.role cfg e = Cfg.Branch_false)
       dead_edges)

let test_constprop_join_loses_constant () =
  (* r1 is 1 or 2 depending on an unknown branch: the join sees Top. *)
  let b =
    Builder.create ~name:"join" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  assert (l0 = 0);
  Builder.terminate b (Block.Br (0, l1, l2));
  Builder.switch_to b l1;
  Builder.emit b (Instr.Iconst (1, 1));
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l2;
  Builder.emit b (Instr.Iconst (1, 2));
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l3;
  Builder.terminate b (Block.Ret Block.Ret_void);
  let cfg = Cfg.of_proc (Builder.finish b) in
  let cp = Constprop.analyze cfg in
  (* The join block is empty: its exit state is its entry state. *)
  (match Constprop.exit_state cp 3 with
  | Some st -> check Alcotest.bool "join is Top" true (st.(1) = Constprop.Top)
  | None -> Alcotest.fail "join block unreached");
  match Constprop.exit_state cp 1 with
  | Some st ->
      check Alcotest.bool "param is Top" true (st.(0) = Constprop.Top);
      check Alcotest.bool "arm constant" true (st.(1) = Constprop.Const 1)
  | None -> Alcotest.fail "then block unreached"

let test_constprop_transfer_mirrors_vm () =
  (* Division by a constant zero must NOT fold (the VM traps); shifts mask
     to 6 bits; Shr is arithmetic. *)
  let st = [| Constprop.Const 7; Constprop.Const 0; Constprop.Top |] in
  Constprop.transfer st (Instr.Ibinop (Instr.Div, 2, 0, 1));
  check Alcotest.bool "div-by-0 folds to Top" true (st.(2) = Constprop.Top);
  let st = [| Constprop.Const (-16); Constprop.Const 65; Constprop.Top |] in
  Constprop.transfer st (Instr.Ibinop (Instr.Shr, 2, 0, 1));
  check Alcotest.bool "shr masks shift amount, stays arithmetic" true
    (st.(2) = Constprop.Const (-8));
  let st = [| Constprop.Const 6; Constprop.Top |] in
  Constprop.transfer st (Instr.Icmp_imm (Instr.Lt, 1, 0, 10));
  check Alcotest.bool "icmp folds to 1" true (st.(1) = Constprop.Const 1)

(* {2 Feasibility} *)

let test_feasibility_constant_branch () =
  let p = constant_branch_proc () in
  let bl = Ball_larus.build (Cfg.of_proc p) in
  let cfg = Ball_larus.cfg bl in
  let fs = Feasibility.analyze cfg bl in
  check Alcotest.bool "enumerated" true (Feasibility.enumerated fs);
  check Alcotest.int "two potential paths" 2 (Ball_larus.num_paths bl);
  check Alcotest.int "one feasible" 1 (Feasibility.num_feasible fs);
  match Feasibility.infeasible_sums fs with
  | [ sum ] -> (
      match Feasibility.check fs sum with
      | Feasibility.Infeasible_edge _ -> ()
      | _ -> Alcotest.fail "expected an infeasible-edge verdict")
  | sums ->
      Alcotest.failf "expected one infeasible sum, got %d"
        (List.length sums)

let test_feasibility_branch_correlation () =
  let prog = Pp_minic.Compile.program ~name:"corr" correlated_src in
  let p = Program.proc_exn prog "work" in
  let bl = Ball_larus.build (Cfg.of_proc p) in
  let cfg = Ball_larus.cfg bl in
  let fs = Feasibility.analyze cfg bl in
  check Alcotest.int "four potential paths" 4 (Ball_larus.num_paths bl);
  check Alcotest.int "two feasible" 2 (Feasibility.num_feasible fs);
  (* No single edge is dead — only the correlation kills paths. *)
  List.iter
    (fun sum ->
      match Feasibility.check fs sum with
      | Feasibility.Infeasible_branch _ -> ()
      | _ -> Alcotest.failf "path %d should die by branch correlation" sum)
    (Feasibility.infeasible_sums fs)

let test_traverse_matches_decode () =
  List.iter
    (fun p ->
      let bl = Ball_larus.build (Cfg.of_proc p) in
      for sum = 0 to Ball_larus.num_paths bl - 1 do
        let trav = Ball_larus.traverse bl sum in
        check Alcotest.int "traversal carries its sum" sum
          trav.Ball_larus.sum;
        let d = Ball_larus.decode bl sum in
        check
          (Alcotest.list Alcotest.int)
          "traversal path = decode" d.Ball_larus.blocks
          trav.Ball_larus.path.Ball_larus.blocks;
        (* Real edges link consecutive path blocks, bracketed by the
           ENTRY edge for From_entry paths and the Return edge for
           To_exit paths (both are real CFG edges; backedge endpoints are
           pseudo edges and excluded). *)
        let cfg = Ball_larus.cfg bl in
        let blocks =
          List.map
            (fun (e : Digraph.edge) ->
              ( Cfg.label_of_vertex cfg e.Digraph.src,
                Cfg.label_of_vertex cfg e.Digraph.dst ))
            trav.Ball_larus.real_edges
        in
        let rec pairs = function
          | a :: (b :: _ as rest) -> (Some a, Some b) :: pairs rest
          | _ -> []
        in
        let pairs bs =
          let interior = pairs bs in
          let with_entry =
            match d.Ball_larus.source with
            | Ball_larus.From_entry ->
                (None, Some (List.hd bs)) :: interior
            | Ball_larus.After_backedge _ -> interior
          in
          match d.Ball_larus.sink with
          | Ball_larus.To_exit ->
              with_entry
              @ [ (Some (List.nth bs (List.length bs - 1)), None) ]
          | Ball_larus.Into_backedge _ -> with_entry
        in
        check
          (Alcotest.list
             (Alcotest.pair
                (Alcotest.option Alcotest.int)
                (Alcotest.option Alcotest.int)))
          "real edges are the consecutive block pairs"
          (pairs d.Ball_larus.blocks) blocks
      done)
    [ Fixtures.figure1_proc (); Fixtures.loop_proc ();
      Fixtures.two_backedges_proc () ]

let test_pruned_round_trip () =
  let bl = Ball_larus.build (Cfg.of_proc (Fixtures.figure1_proc ())) in
  check Alcotest.int "figure 1 has six paths" 6 (Ball_larus.num_paths bl);
  let pruned = Ball_larus.prune bl ~feasible:(fun s -> s mod 2 = 0) in
  check Alcotest.int "three survive" 3 (Ball_larus.num_feasible pruned);
  check
    (Alcotest.array Alcotest.int)
    "sums ascending" [| 0; 2; 4 |]
    pruned.Ball_larus.sums

(* {2 Profile I/O annotations} *)

let saved_profile () =
  let prog = Pp_minic.Compile.program ~name:"corr" correlated_src in
  let s = Driver.prepare ~pruner:Feasibility.pruner ~mode:Instrument.Flow_hw prog in
  ignore (Driver.run s);
  (prog, Driver.saved_profile s)

let test_profile_io_feasible_round_trip () =
  let _, saved = saved_profile () in
  check Alcotest.bool "annotation present" true
    (List.mem_assoc "work" saved.Profile_io.feasible);
  check
    (Alcotest.option Alcotest.int)
    "work certifies 2 feasible paths" (Some 2)
    (List.assoc_opt "work" saved.Profile_io.feasible);
  let reparsed = Fixtures.read_shard (Profile_io.to_string saved) in
  check Alcotest.string "round trip is identity"
    (Profile_io.to_string saved)
    (Profile_io.to_string reparsed)

let test_profile_io_merge_annotations () =
  let _, saved = saved_profile () in
  (match Profile_io.merge saved saved with
  | Ok m ->
      check
        (Alcotest.option Alcotest.int)
        "agreement survives merge" (Some 2)
        (List.assoc_opt "work" m.Profile_io.feasible)
  | Error _ -> Alcotest.fail "agreeing shards must merge");
  let tampered =
    {
      saved with
      Profile_io.feasible =
        List.map
          (fun (n, k) -> if n = "work" then (n, k + 1) else (n, k))
          saved.Profile_io.feasible;
    }
  in
  match Profile_io.merge saved tampered with
  | Ok _ -> Alcotest.fail "disagreeing feasible counts must not merge"
  | Error _ -> ()

(* {2 Frequency estimation} *)

let test_freq_sanity () =
  let cfg = Cfg.of_proc (Fixtures.loop_proc ()) in
  let freq = Freq.estimate cfg in
  let out_flow v =
    List.fold_left
      (fun acc e -> acc +. Freq.edge_freq freq e)
      0.0
      (Digraph.out_edges cfg.Cfg.graph v)
  in
  check (Alcotest.float 1e-9) "ENTRY executes once" 1.0
    (out_flow cfg.Cfg.entry);
  (* Outgoing probabilities of every block with successors sum to 1: its
     out-edges carry exactly its frequency. *)
  Array.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      let v = Cfg.vertex_of_label cfg l in
      if Block.successors b <> [] then
        check (Alcotest.float 1e-9)
          (Printf.sprintf "probs at L%d sum to 1" l)
          (Freq.block_freq freq l) (out_flow v))
    cfg.Cfg.proc.Proc.blocks;
  (* The loop body runs more often per invocation than straight-line
     code, and every estimate is finite and non-negative. *)
  let body = Freq.block_freq freq 2 and pre = Freq.block_freq freq 0 in
  check Alcotest.bool "loop body amplified" true (body > pre);
  Array.iter
    (fun (b : Block.t) ->
      let f = Freq.block_freq freq b.Block.label in
      check Alcotest.bool "finite, non-negative" true
        (Float.is_finite f && f >= 0.0))
    cfg.Cfg.proc.Proc.blocks

let test_freq_infeasible_edge_is_zero () =
  let cfg = Cfg.of_proc (constant_branch_proc ()) in
  let cp = Constprop.analyze cfg in
  let freq = Freq.estimate ~cp cfg in
  check (Alcotest.float 1e-9) "dead arm never runs" 0.0
    (Freq.block_freq freq 2);
  check (Alcotest.float 1e-9) "live arm always runs" 1.0
    (Freq.block_freq freq 1)

(* {2 Cost report} *)

let test_cost_report_with_profile () =
  let prog, saved = saved_profile () in
  match Cost.compute ~mode:Instrument.Flow_hw ~profile:saved prog with
  | Error d -> Alcotest.failf "cost failed: %s" (Pp_ir.Diag.to_string d)
  | Ok report ->
      let work =
        List.find (fun (r : Cost.row) -> r.Cost.proc = "work") report.Cost.rows
      in
      check (Alcotest.option Alcotest.int) "feasible column" (Some 2)
        work.Cost.nfeasible;
      (match work.Cost.measured with
      | None -> Alcotest.fail "profiled proc must have measured data"
      | Some m ->
          check Alcotest.int "work called twice" 2 m.Cost.invocations;
          check Alcotest.bool "probes executed" true (m.Cost.probes > 0));
      let rendered = Cost.render report in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "comparison section present" true
        (contains rendered "estimated vs measured")

let test_cost_rejects_bad_annotation () =
  let prog, saved = saved_profile () in
  let tampered =
    {
      saved with
      Profile_io.feasible =
        List.map
          (fun (n, k) -> if n = "work" then (n, k + 1) else (n, k))
          saved.Profile_io.feasible;
    }
  in
  match Cost.compute ~mode:Instrument.Flow_hw ~profile:tampered prog with
  | Ok _ -> Alcotest.fail "wrong feasible annotation must be rejected"
  | Error _ -> ()

(* {2 Pinned verdicts}

   Every enumerated procedure's full verdict table over every workload,
   rendered sum by sum with the dead edge or the contradicted block and
   its value, hashed.  The digest was taken while each sum was replayed
   on its own; it pins the exact verdicts. *)

let render_verdict = function
  | Feasibility.Feasible -> "feasible"
  | Feasibility.Infeasible_edge (e : Digraph.edge) ->
      Printf.sprintf "edge %d %d->%d" e.id e.src e.dst
  | Feasibility.Infeasible_branch { block; value } ->
      Printf.sprintf "branch L%d = %d" block value

let verdicts_md5 = "89d8ea7574455d8508f6814c362d3454"

let test_verdicts_pinned () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (w : Pp_workloads.Workload.t) ->
      let prog = Pp_workloads.Workload.compile w in
      Array.iter
        (fun (p : Proc.t) ->
          let cfg = Cfg.of_proc p in
          match Ball_larus.build cfg with
          | exception Ball_larus.Unsupported msg ->
              Printf.bprintf buf "%s/%s unsupported: %s\n" w.name
                p.Proc.name msg
          | bl ->
              let fs = Feasibility.analyze cfg bl in
              let n = Ball_larus.num_paths bl in
              Printf.bprintf buf "%s/%s %d\n" w.name p.Proc.name n;
              if Feasibility.enumerated fs then
                for sum = 0 to n - 1 do
                  Printf.bprintf buf "%d %s\n" sum
                    (render_verdict (Feasibility.check fs sum))
                done)
        prog.Program.procs)
    Pp_workloads.Registry.all;
  check Alcotest.string "verdicts digest" verdicts_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* {2 The one walk against a per-sum replay}

   The reference model classifies one sum at a time: decode it, look for
   a never-executable edge among those it crosses in path order, and
   otherwise replay its straight-line code from ENTRY's all-Top state or
   from the source backedge's exit state until a constant branch
   condition contradicts the arm the path takes.  The walk must give
   every sum this verdict. *)

let replay_sum (cfg : Cfg.t) bl cp sum =
  let trav = Ball_larus.traverse bl sum in
  let path = trav.Ball_larus.path in
  let source_edge, sink_edge =
    ( (match path.Ball_larus.source with
      | Ball_larus.From_entry -> []
      | Ball_larus.After_backedge b -> [ b ]),
      match path.Ball_larus.sink with
      | Ball_larus.To_exit -> []
      | Ball_larus.Into_backedge b -> [ b ] )
  in
  let crossed = source_edge @ trav.Ball_larus.real_edges @ sink_edge in
  match
    List.find_opt (fun e -> not (Constprop.edge_executable cp e)) crossed
  with
  | Some e -> Feasibility.Infeasible_edge e
  | None -> (
      let proc = cfg.Cfg.proc in
      let state =
        match path.Ball_larus.source with
        | Ball_larus.From_entry ->
            Array.make (max proc.Proc.niregs 1) Constprop.Top
        | Ball_larus.After_backedge b ->
            Option.get
              (Constprop.exit_state cp
                 (Option.get (Cfg.label_of_vertex cfg b.Digraph.src)))
      in
      (* The edge each block leaves through: the ENTRY edge of a path
         from ENTRY is not one of them. *)
      let outs =
        (match path.Ball_larus.source with
        | Ball_larus.From_entry -> List.tl trav.Ball_larus.real_edges
        | Ball_larus.After_backedge _ -> trav.Ball_larus.real_edges)
        @ sink_edge
      in
      let exception Contradiction of Feasibility.verdict in
      let step l (out : Digraph.edge) =
        let b = Proc.block proc l in
        List.iter (Constprop.transfer state) b.Block.instrs;
        match b.Block.term with
        | Block.Br (r, _, _) -> (
            match state.(r) with
            | Constprop.Top -> ()
            | Constprop.Const c ->
                let taken : Cfg.edge_role =
                  if c <> 0 then Cfg.Branch_true else Cfg.Branch_false
                in
                if Cfg.role cfg out <> taken then
                  raise
                    (Contradiction
                       (Feasibility.Infeasible_branch { block = l; value = c })))
        | Block.Jmp _ | Block.Ret _ -> ()
      in
      try
        List.iter2 step path.Ball_larus.blocks outs;
        Feasibility.Feasible
      with Contradiction v -> v)

(* Every enumerated sum of [prog], with the verdict the walk gave and
   the one the replay gives. *)
let verdict_pairs (prog : Program.t) =
  Array.to_list prog.Program.procs
  |> List.concat_map (fun (p : Proc.t) ->
         let cfg = Cfg.of_proc p in
         match Ball_larus.build cfg with
         | exception Ball_larus.Unsupported _ -> []
         | bl ->
             let fs = Feasibility.analyze cfg bl in
             if not (Feasibility.enumerated fs) then []
             else
               let cp = Feasibility.constprop fs in
               List.init (Ball_larus.num_paths bl) (fun sum ->
                   ( p.Proc.name, bl, sum, Feasibility.check fs sum,
                     replay_sum cfg bl cp sum )))

let mismatches pairs =
  List.filter_map
    (fun (proc, _, sum, walked, replayed) ->
      if walked = replayed then None
      else
        Some
          (Printf.sprintf "%s path %d: walk %s, replay %s" proc sum
             (render_verdict walked) (render_verdict replayed)))
    pairs

let prop_walk_matches_replay =
  QCheck.Test.make ~name:"one walk equals the per-sum replay" ~count:40
    ~long_factor:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Test_random_programs.gen_program seed in
      match
        mismatches
          (verdict_pairs (Pp_minic.Compile.program ~name:"gen" src))
      with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_reportf "%s" m)

(* Every shipped example, and every kind of sum the comparison must
   cover: paths from ENTRY and after a backedge, feasible ones, dead
   edges and contradictions. *)
let test_walk_matches_replay_examples () =
  let dir =
    match Test_compile.examples_dir with
    | Some dir -> dir
    | None -> Alcotest.fail "examples/programs not found above cwd"
  in
  let pairs =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           Filename.check_suffix f ".mc" || Filename.check_suffix f ".ppir")
    |> List.concat_map (fun f ->
           match
             Pp_run.Pipeline.load ~file:(Some (Filename.concat dir f))
               ~workload:None
           with
           | Error msg -> Alcotest.failf "%s: %s" f msg
           | Ok prog ->
               let pairs = verdict_pairs prog in
               check (Alcotest.list Alcotest.string) f [] (mismatches pairs);
               pairs)
  in
  let kinds =
    List.concat_map
      (fun (_, bl, sum, _, replayed) ->
        [
          (match (Ball_larus.decode bl sum).Ball_larus.source with
          | Ball_larus.From_entry -> "from entry"
          | Ball_larus.After_backedge _ -> "after backedge");
          (match replayed with
          | Feasibility.Feasible -> "feasible"
          | Feasibility.Infeasible_edge _ -> "dead edge"
          | Feasibility.Infeasible_branch _ -> "contradiction");
        ])
      pairs
  in
  List.iter
    (fun kind ->
      check Alcotest.bool (kind ^ " sums compared") true (List.mem kind kinds))
    [ "from entry"; "after backedge"; "feasible"; "dead edge"; "contradiction" ]

(* {2 The soundness property}

   Over randomly generated MiniC programs, run every instrumentation mode
   with the pruner enabled and require that no dynamically executed path
   was judged statically infeasible, and (for edge profiles) that no
   dynamically executed edge was proven never-executable.  This is the
   contract that makes pruning sound rather than merely plausible. *)

let prop_pruning_sound =
  QCheck.Test.make
    ~name:"no observed path or edge is ever statically pruned" ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Test_random_programs.gen_program seed in
      let prog = Pp_minic.Compile.program ~name:"gen" src in
      List.for_all
        (fun mode ->
          let s =
            Driver.prepare ~pruner:Feasibility.pruner
              ~max_instructions:400_000_000 ~mode prog
          in
          ignore (Driver.run s);
          let paths_sound =
            List.for_all
              (fun (pp : Profile.proc_profile) ->
                let bl = pp.Profile.numbering in
                let fs =
                  Feasibility.analyze (Ball_larus.cfg bl) bl
                in
                List.for_all
                  (fun (sum, _) -> Feasibility.feasible fs sum)
                  pp.Profile.paths)
              (Driver.path_profile s).Profile.procs
          in
          let edges_sound =
            match mode with
            | Instrument.Edge_freq ->
                List.for_all
                  (fun (_, plan, counts) ->
                    let cfg = Pp_core.Edge_profile.cfg plan in
                    let cp = Constprop.analyze cfg in
                    List.for_all
                      (fun ((e : Digraph.edge), n) ->
                        n = 0 || Constprop.edge_executable cp e)
                      counts)
                  (Driver.edge_profile s)
            | _ -> true
          in
          paths_sound && edges_sound)
        Instrument.all_modes)

let suite =
  [
    Alcotest.test_case "constprop: constant branch kills an arm" `Quick
      test_constprop_constant_branch;
    Alcotest.test_case "constprop: join loses the constant" `Quick
      test_constprop_join_loses_constant;
    Alcotest.test_case "constprop: folding mirrors the VM" `Quick
      test_constprop_transfer_mirrors_vm;
    Alcotest.test_case "feasibility: constant branch prunes a path" `Quick
      test_feasibility_constant_branch;
    Alcotest.test_case "feasibility: branch correlation prunes 2 of 4"
      `Quick test_feasibility_branch_correlation;
    Alcotest.test_case "traverse agrees with decode" `Quick
      test_traverse_matches_decode;
    Alcotest.test_case "pruned numbering: index/sum round trip" `Quick
      test_pruned_round_trip;
    Alcotest.test_case "profile io: feasible annotations round trip" `Quick
      test_profile_io_feasible_round_trip;
    Alcotest.test_case "profile io: merge checks annotation agreement"
      `Quick test_profile_io_merge_annotations;
    Alcotest.test_case "freq: probabilities and loop amplification" `Quick
      test_freq_sanity;
    Alcotest.test_case "freq: infeasible edges get zero mass" `Quick
      test_freq_infeasible_edge_is_zero;
    Alcotest.test_case "cost: estimated vs measured report" `Quick
      test_cost_report_with_profile;
    Alcotest.test_case "cost: rejects disagreeing annotations" `Quick
      test_cost_rejects_bad_annotation;
    Alcotest.test_case "feasibility: verdicts pinned, 18 workloads" `Slow
      test_verdicts_pinned;
    Alcotest.test_case "feasibility: one walk equals the replay, examples"
      `Quick test_walk_matches_replay_examples;
    QCheck_alcotest.to_alcotest prop_walk_matches_replay;
    QCheck_alcotest.to_alcotest prop_pruning_sound;
  ]
