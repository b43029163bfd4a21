(* Tests of the calling context tree, its comparison structures (DCT, DCG)
   and the gprof approximation, anchored on the scenarios of Figures 4/5. *)

open Pp_core

let check = Alcotest.check

(* Drive a CCT with unit data through a call trace.  Procedures here have a
   generous fixed site count; site numbers pick which slot each call uses. *)
let make_cct ?merge_call_sites () =
  Cct.create ?merge_call_sites ~make_data:(fun ~proc:_ ~nsites:_ -> ()) ()

let enter t ?(site = 0) ?(kind = Cct.Direct) proc =
  ignore (Cct.enter t ~proc ~nsites:4 ~site ~kind)

(* The Figure 4 scenario: contexts M.A.B.C and M.D.C both exist; the chain
   M.D.A.B.C is edge-wise present in the DCG but never occurred. *)
let fig4_trace cct_enter cct_exit =
  cct_enter "M" 0;
  cct_enter "A" 0;
  cct_enter "B" 0;
  cct_enter "C" 0;
  cct_exit ();
  cct_exit ();
  cct_exit ();
  cct_enter "D" 1;
  cct_enter "C" 0;
  cct_exit ();
  cct_enter "A" 1;
  cct_exit ();
  cct_exit ();
  cct_exit ()

let test_fig4_contexts () =
  let t = make_cct () in
  fig4_trace (fun p site -> enter t ~site p) (fun () -> Cct.exit t);
  Cct.check_invariants t;
  (* Records: M, A(M), B, C(M.A.B), D, C(M.D), A(M.D) -> 7 + root. *)
  check Alcotest.int "nodes" 8 (Cct.num_nodes t);
  let c1 = Cct.find_context t [ "M"; "A"; "B"; "C" ] in
  let c2 = Cct.find_context t [ "M"; "D"; "C" ] in
  Alcotest.(check bool) "context M.A.B.C exists" true (c1 <> None);
  Alcotest.(check bool) "context M.D.C exists" true (c2 <> None);
  (match (c1, c2) with
  | Some n1, Some n2 ->
      Alcotest.(check bool) "two distinct C records" true (n1 != n2)
  | _ -> ());
  Alcotest.(check bool) "no context M.D.A.B" true
    (Cct.find_context t [ "M"; "D"; "A"; "B" ] = None)

let test_fig4_dcg_infeasible () =
  let g = Dcg.create () in
  fig4_trace (fun p _site -> Dcg.enter g ~proc:p) (fun () -> Dcg.exit g);
  (* Every consecutive pair exists, yet the chain was never a context. *)
  Alcotest.(check bool) "edge-wise feasible" true
    (Dcg.path_exists g [ "M"; "D"; "A"; "B"; "C" ])

let test_fig4_dct () =
  let d = Dct.create () in
  fig4_trace (fun p _ -> Dct.enter d ~proc:p) (fun () -> Dct.exit d);
  check Alcotest.int "activations (root incl.)" 8 (Dct.num_nodes d);
  let ctxs = List.map fst (Dct.contexts d) in
  Alcotest.(check bool) "DCT has M.A.B.C" true
    (List.mem [ "M"; "A"; "B"; "C" ] ctxs);
  Alcotest.(check bool) "DCT lacks M.D.A.B" true
    (not (List.mem [ "M"; "D"; "A"; "B" ] ctxs))

(* Figure 5: recursion.  M -> A -> B -> A(recursive).  The recursive A
   reuses the original record via a backedge; depth stays bounded. *)
let test_fig5_recursion () =
  let t = make_cct () in
  enter t "M";
  enter t "A";
  enter t "B";
  enter t "A";
  (* recursive: backedge *)
  Cct.check_invariants t;
  (* Records: root, M, A, B — the recursive A allocates nothing. *)
  check Alcotest.int "nodes" 4 (Cct.num_nodes t);
  let a = Cct.find_context t [ "M"; "A" ] in
  Alcotest.(check bool) "A record exists" true (a <> None);
  (* The current record is the original A. *)
  (match a with
  | Some a -> Alcotest.(check bool) "reused" true (Cct.current t == a)
  | None -> ());
  (* The backedge hangs off B. *)
  let b = Option.get (Cct.find_context t [ "M"; "A"; "B" ]) in
  let backs = List.filter (fun e -> e.Cct.is_backedge) (Cct.edges b) in
  check Alcotest.int "one backedge" 1 (List.length backs);
  (* Unwind out of the recursion: the stack is M A B A. *)
  Cct.exit t;
  Alcotest.(check bool) "back in B" true (Cct.current t == b);
  Cct.exit t;
  Cct.exit t;
  Cct.exit t;
  Alcotest.(check bool) "back at the root" true (Cct.current t == Cct.root t);
  match Cct.exit t with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "exit past the root"

(* Deep mutual recursion must keep the node count bounded by the number of
   procedures even for thousands of activations. *)
let test_recursion_bounded () =
  let t = make_cct () in
  enter t "even";
  for _ = 1 to 2000 do
    enter t "odd";
    enter t "even"
  done;
  Cct.check_invariants t;
  check Alcotest.int "nodes bounded" 3 (Cct.num_nodes t);
  (* The stack is 4001 deep: unwinding to 4001 pops nothing, to 4002
     is an error. *)
  Cct.unwind_to_depth t 4001;
  (match Cct.unwind_to_depth t 4002 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unwound to beyond the stack");
  Cct.unwind_to_depth t 0;
  Alcotest.(check bool) "unwound" true (Cct.current t == Cct.root t)

let test_merge_call_sites () =
  (* Same callee from two different sites: distinguished mode makes two
     records; merged mode makes one. *)
  let trace t =
    enter t "M";
    enter t ~site:0 "X";
    Cct.exit t;
    enter t ~site:1 "X";
    Cct.exit t;
    Cct.exit t
  in
  let distinct = make_cct () in
  trace distinct;
  let merged = make_cct ~merge_call_sites:true () in
  trace merged;
  check Alcotest.int "distinct sites -> 2 X records" 4
    (Cct.num_nodes distinct);
  check Alcotest.int "merged sites -> 1 X record" 3 (Cct.num_nodes merged)

let test_calls_counted () =
  let t = make_cct () in
  enter t "M";
  for _ = 1 to 5 do
    enter t "X";
    Cct.exit t
  done;
  let m = Option.get (Cct.find_context t [ "M" ]) in
  match Cct.edges m with
  | [ e ] -> check Alcotest.int "edge call count" 5 e.Cct.calls
  | _ -> Alcotest.fail "expected one edge"

let test_unwind_nonlocal () =
  (* Simulates a longjmp past two frames. *)
  let t = make_cct () in
  enter t "M";
  enter t "A";
  enter t "B";
  enter t "C";
  Cct.unwind_to_depth t 1;
  Alcotest.(check string) "back in M" "M" (Cct.proc (Cct.current t));
  enter t "D";
  Cct.check_invariants t;
  Alcotest.(check bool) "D under M" true
    (Cct.find_context t [ "M"; "D" ] <> None)

let test_stats_fig4 () =
  let t = make_cct () in
  fig4_trace (fun p site -> enter t ~site p) (fun () -> Cct.exit t);
  let st = Cct_stats.compute ~metrics_per_node:2 t in
  check Alcotest.int "nodes" 7 st.Cct_stats.nodes;
  check Alcotest.int "height max" 4 st.Cct_stats.height_max;
  check Alcotest.int "max replication (A and C both 2)" 2
    st.Cct_stats.max_replication;
  (* Record size: (2 + 2 metrics + 4 sites) * 4 = 32 bytes, no lists. *)
  check Alcotest.int "size" (7 * 32) st.Cct_stats.size_bytes;
  check Alcotest.int "call sites total" 28 st.Cct_stats.call_sites_total;
  (* Used: M uses 2 (A@0, D@1); A(M) uses 1 (B); B uses 1 (C); D uses 2;
     others 0. *)
  check Alcotest.int "call sites used" 6 st.Cct_stats.call_sites_used

let test_stats_indirect_lists () =
  let t = make_cct () in
  enter t "M";
  enter t ~site:0 ~kind:Cct.Indirect "F1";
  Cct.exit t;
  enter t ~site:0 ~kind:Cct.Indirect "F2";
  Cct.exit t;
  Cct.exit t;
  let st = Cct_stats.compute ~metrics_per_node:0 t in
  (* M's slot 0 holds an indirect list of 2 callees: 3 list elements of 8
     bytes (two entries + terminal) on top of the records. *)
  let record_bytes = 4 * (2 + 0 + 4) in
  check Alcotest.int "size with lists" ((3 * record_bytes) + 24)
    st.Cct_stats.size_bytes

(* gprof problem: procedure "work" is cheap when called by "light" and
   expensive when called by "heavy", with equal call counts.  gprof assigns
   both callers the same cost; the CCT separates them. *)
let test_gprof_problem () =
  let g = Gprof.create () in
  Gprof.enter g ~proc:"main";
  Gprof.enter g ~proc:"light";
  Gprof.enter g ~proc:"work";
  Gprof.exit g ~cost:10;
  Gprof.exit g ~cost:0;
  Gprof.enter g ~proc:"heavy";
  Gprof.enter g ~proc:"work";
  Gprof.exit g ~cost:990;
  Gprof.exit g ~cost:0;
  Gprof.exit g ~cost:0;
  let att_light = Gprof.attributed g ~caller:"light" ~callee:"work" in
  let att_heavy = Gprof.attributed g ~caller:"heavy" ~callee:"work" in
  (* gprof splits 1000 evenly: 500 each — wrong by 49x for light. *)
  Alcotest.(check (float 0.001)) "light attributed" 500.0 att_light;
  Alcotest.(check (float 0.001)) "heavy attributed" 500.0 att_heavy;
  (* CCT ground truth keeps them apart. *)
  let t = Cct.create ~make_data:(fun ~proc:_ ~nsites:_ -> ref 0) () in
  let run caller cost =
    ignore (Cct.enter t ~proc:caller ~nsites:4 ~site:0 ~kind:Cct.Direct);
    let n = Cct.enter t ~proc:"work" ~nsites:4 ~site:0 ~kind:Cct.Direct in
    Cct.data n := !(Cct.data n) + cost;
    Cct.exit t;
    Cct.exit t
  in
  ignore (Cct.enter t ~proc:"main" ~nsites:4 ~site:0 ~kind:Cct.Direct);
  run "light" 10;
  run "heavy" 990;
  let via ctx = !(Cct.data (Option.get (Cct.find_context t ctx))) in
  check Alcotest.int "cct light" 10 (via [ "main"; "light"; "work" ]);
  check Alcotest.int "cct heavy" 990 (via [ "main"; "heavy"; "work" ])

(* Random traces: a recursive generator that drives CCT + DCT together. *)
let random_trace ~seed ~nprocs ~max_depth ~fanout cct dct =
  let rng = Random.State.make [| seed; 42 |] in
  let rec go depth =
    if depth < max_depth then begin
      let n = Random.State.int rng fanout in
      for _ = 1 to n do
        let p = Printf.sprintf "p%d" (Random.State.int rng nprocs) in
        let site = Random.State.int rng 4 in
        ignore (Cct.enter cct ~proc:p ~nsites:4 ~site ~kind:Cct.Direct);
        Dct.enter dct ~proc:p;
        go (depth + 1);
        Cct.exit cct;
        Dct.exit dct
      done
    end
  in
  ignore (Cct.enter cct ~proc:"main" ~nsites:4 ~site:0 ~kind:Cct.Direct);
  Dct.enter dct ~proc:"main";
  go 0;
  Cct.exit cct;
  Dct.exit dct

let prop_invariants =
  QCheck.Test.make ~name:"CCT invariants hold on random traces" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let cct = make_cct () in
      let dct = Dct.create () in
      random_trace ~seed ~nprocs:6 ~max_depth:5 ~fanout:4 cct dct;
      Cct.check_invariants cct;
      true)

(* With call sites merged and no recursion, CCT vertices are exactly the
   distinct DCT contexts (paper §4.1: "a CCT contains a unique vertex for
   each unique call chain in its underlying DCT").  nprocs > max_depth
   cannot prevent recursion, so we detect and skip traces that recursed. *)
let prop_dct_cct_contexts =
  QCheck.Test.make
    ~name:"CCT vertices = distinct DCT contexts (no recursion, merged sites)"
    ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let cct = make_cct ~merge_call_sites:true () in
      let dct = Dct.create () in
      random_trace ~seed ~nprocs:12 ~max_depth:4 ~fanout:3 cct dct;
      let dct_contexts = List.map fst (Dct.contexts dct) in
      let recursed =
        List.exists
          (fun ctx ->
            List.length ctx <> List.length (List.sort_uniq compare ctx))
          dct_contexts
      in
      QCheck.assume (not recursed);
      let cct_contexts =
        Cct.fold
          (fun acc n -> if Cct.parent n = None then acc else Cct.context n :: acc)
          [] cct
        |> List.sort compare
      in
      List.sort compare dct_contexts = cct_contexts)

let suite =
  [
    Alcotest.test_case "fig4: contexts preserved" `Quick test_fig4_contexts;
    Alcotest.test_case "fig4: DCG infeasible path" `Quick
      test_fig4_dcg_infeasible;
    Alcotest.test_case "fig4: DCT activations" `Quick test_fig4_dct;
    Alcotest.test_case "fig5: recursion backedge" `Quick test_fig5_recursion;
    Alcotest.test_case "recursion keeps CCT bounded" `Quick
      test_recursion_bounded;
    Alcotest.test_case "call-site merging trade-off" `Quick
      test_merge_call_sites;
    Alcotest.test_case "edge call counts" `Quick test_calls_counted;
    Alcotest.test_case "non-local unwind" `Quick test_unwind_nonlocal;
    Alcotest.test_case "stats on fig4" `Quick test_stats_fig4;
    Alcotest.test_case "stats count indirect lists" `Quick
      test_stats_indirect_lists;
    Alcotest.test_case "the gprof problem" `Quick test_gprof_problem;
    QCheck_alcotest.to_alcotest prop_invariants;
    QCheck_alcotest.to_alcotest prop_dct_cct_contexts;
  ]
