(* The worklist solver and the stock analyses built on it. *)

open Pp_ir
module Digraph = Pp_graph.Digraph
module Dataflow = Pp_analysis.Dataflow
module Bitset = Dataflow.Bitset
module Liveness = Pp_analysis.Liveness
module Uninit = Pp_analysis.Uninit
module Lint = Pp_analysis.Lint
module Ball_larus = Pp_core.Ball_larus

let check = Alcotest.check
let int_list = Alcotest.(list int)

(* A max- or min-problem over the CFG's vertices on [Dataflow.solve]:
   [transfer] applies to blocks (ENTRY and EXIT pass values through) and
   [edge] to each edge a value crosses.  Backward runs from EXIT against
   the edges.  The result is each vertex's incoming value. *)
let cfg_solve ?(edge = fun _ v -> v) ?(steps = ref 0) ~join ~direction
    (cfg : Cfg.t) ~init ~transfer =
  let g = cfg.Cfg.graph in
  let start, out_edges, far =
    match direction with
    | Dataflow.Forward ->
        (cfg.Cfg.entry, Digraph.out_edges g, fun (e : Digraph.edge) -> e.dst)
    | Dataflow.Backward ->
        (cfg.Cfg.exit, Digraph.in_edges g, fun (e : Digraph.edge) -> e.src)
  in
  let apply v x =
    match Cfg.label_of_vertex cfg v with
    | None -> x
    | Some l ->
        incr steps;
        transfer l x
  in
  Dataflow.solve ~size:(Digraph.num_vertices g) ~start ~init
    ~step:(fun v x ->
      let y = apply v x in
      List.map (fun e -> (far e, edge e y)) (out_edges v))
    ~merge:(fun _ old x ->
      let j = join old x in
      if j = old then None else Some j)

(* Forward, join = max, transfer = +1 per block: the final value at EXIT is
   the number of blocks on the longest ENTRY->EXIT path. *)
let test_longest_path () =
  let cfg = Cfg.of_proc (Fixtures.figure1_proc ()) in
  let r =
    cfg_solve ~join:max ~direction:Dataflow.Forward cfg ~init:0
      ~transfer:(fun _ v -> v + 1)
  in
  check Alcotest.(option int) "longest path A..F" (Some 6) r.(cfg.Cfg.exit);
  (* Backward is symmetric: longest path measured from the other end. *)
  let b =
    cfg_solve ~join:max ~direction:Dataflow.Backward cfg ~init:0
      ~transfer:(fun _ v -> v + 1)
  in
  check Alcotest.(option int) "backward agrees" (Some 6) b.(cfg.Cfg.entry)

(* Charging Ball-Larus Val(e) on edges: the max path sum reaching EXIT is
   num_paths - 1 and the min is 0 — exactly the encoding's range. *)
let test_edge_transfer () =
  let cfg = Cfg.of_proc (Fixtures.figure1_proc ()) in
  let bl = Ball_larus.build cfg in
  let edge e v = v + Ball_larus.edge_val bl e in
  let id _ v = v in
  let mx =
    cfg_solve ~edge ~join:max ~direction:Dataflow.Forward cfg ~init:0
      ~transfer:id
  in
  let mn =
    cfg_solve ~edge ~join:min ~direction:Dataflow.Forward cfg ~init:0
      ~transfer:id
  in
  check Alcotest.(option int) "max path sum" (Some 5) mx.(cfg.Cfg.exit);
  check Alcotest.(option int) "min path sum" (Some 0) mn.(cfg.Cfg.exit)

(* Blocks not reachable from ENTRY stay at bottom (= None). *)
let test_unreachable_bottom () =
  let b =
    Builder.create ~name:"unreach" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  ignore l0;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.switch_to b l1;
  Builder.terminate b (Block.Jmp l0);
  let cfg = Cfg.of_proc (Builder.finish b) in
  let r =
    cfg_solve ~join:max ~direction:Dataflow.Forward cfg ~init:0
      ~transfer:(fun _ v -> v + 1)
  in
  (* l0's only successor is EXIT, which receives l0's output *)
  check Alcotest.(option int) "entry block reached" (Some 1) r.(cfg.Cfg.exit);
  check Alcotest.(option int) "dead block at bottom" None
    r.(Cfg.vertex_of_label cfg l1)

(* The worklist reaches a fixpoint in a bounded number of transfer
   applications on cyclic graphs. *)
let test_convergence () =
  List.iter
    (fun seed ->
      let proc = Fixtures.random_cyclic_proc ~seed ~n:24 in
      let cfg = Cfg.of_proc proc in
      let steps = ref 0 in
      ignore
        (cfg_solve ~steps ~join:max ~direction:Dataflow.Forward cfg ~init:0
           ~transfer:(fun _ v -> min (v + 1) 40));
      let nverts = 24 + 1 + 2 in
      (* height of the chain lattice {0..40} times the vertex count is a
         crude worklist bound; far below it in practice *)
      if !steps > 41 * nverts then
        Alcotest.failf "seed %d: %d steps for %d vertices" seed !steps nverts)
    [ 1; 2; 3; 4; 5 ]

(* The solver's order is FIFO: a node reached or changed joins the back
   of the queue unless already on it.  Absint's widening counts merges per
   node, so its results depend on this sequence.
     L0: jmp L1;  L1: br r0 ? L2 : L3;  L2: jmp L1;  L3: ret
   with values counting blocks crossed, capped at 3. *)
let test_fifo_order () =
  let b =
    Builder.create ~name:"loop" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  ignore l0;
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l1;
  Builder.terminate b (Block.Br (0, l2, l3));
  Builder.switch_to b l2;
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l3;
  Builder.terminate b (Block.Ret Block.Ret_void);
  let p = Builder.finish b in
  let stepped = ref [] and merged = ref [] in
  let values =
    Dataflow.solve ~size:(Proc.num_blocks p) ~start:l0 ~init:0
      ~step:(fun l x ->
        stepped := l :: !stepped;
        List.map
          (fun s -> (s, min (x + 1) 3))
          (Block.successors (Proc.block p l)))
      ~merge:(fun l old x ->
        merged := (l, old, x) :: !merged;
        if x > old then Some x else None)
  in
  check int_list "blocks stepped" [ 0; 1; 2; 3; 1; 2; 3 ] (List.rev !stepped);
  check
    Alcotest.(list (triple int int int))
    "merges (node, old, pushed)"
    [ (1, 1, 3); (2, 2, 3); (3, 2, 3); (1, 3, 3) ]
    (List.rev !merged);
  check
    Alcotest.(array (option int))
    "fixpoint" [| Some 0; Some 3; Some 3; Some 3 |] values

let test_bitset () =
  let s = Bitset.create 70 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 69;
  let elements s = List.filter (Bitset.mem s) (List.init 70 Fun.id) in
  check int_list "elements" [ 0; 63; 69 ] (elements s);
  Bitset.remove s 63;
  check Alcotest.bool "removed" false (Bitset.mem s 63);
  let t = Bitset.copy s in
  Bitset.add t 1;
  check int_list "copy is private" [ 0; 69 ] (elements s);
  check int_list "copy" [ 0; 1; 69 ] (elements t);
  check Alcotest.bool "full/mem" true (Bitset.mem (Bitset.full 70) 69)

(* r0 is the parameter.
     L0: r1 <- 5;          br r0 ? L1 : L2
     L1: r2 <- r1 + r0;    jmp L3
     L2: r2 <- 0;          jmp L3
     L3: ret [ret] (r2 by default) *)
let liveness_proc ?(ret = 2) () =
  let b =
    Builder.create ~name:"live" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_int
  in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  ignore l0;
  Builder.emit b (Instr.Iconst (1, 5));
  Builder.terminate b (Block.Br (0, l1, l2));
  Builder.switch_to b l1;
  Builder.emit b (Instr.Ibinop (Instr.Add, 2, 1, 0));
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l2;
  Builder.emit b (Instr.Iconst (2, 0));
  Builder.terminate b (Block.Jmp l3);
  Builder.switch_to b l3;
  Builder.terminate b (Block.Ret (Block.Ret_int ret));
  Builder.finish b

(* Liveness as its clients see it: r0 is read, r1 is live out of L0 and
   r2 live into L3, so nothing is dead; returning r0 instead kills r2 on
   both arms (the zero initialiser on L2 is tolerated). *)
let test_liveness () =
  let diags ret =
    let lv = Liveness.compute (Cfg.of_proc (liveness_proc ~ret ())) in
    List.map Diag.to_string (Liveness.unused_params lv @ Liveness.dead_stores lv)
  in
  check (Alcotest.list Alcotest.string) "all live" [] (diags 2);
  check (Alcotest.list Alcotest.string) "r2 dead on return of r0"
    [ "warning: live/L1/0: dead store: r2 is never read" ]
    (diags 0)

let single_block_proc instrs ret =
  let b =
    Builder.create ~name:"one" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_int
  in
  ignore (Builder.new_block b);
  List.iter (Builder.emit b) instrs;
  Builder.terminate b (Block.Ret (Block.Ret_int ret));
  Builder.finish b

let test_dead_stores () =
  let dead r1 r2 =
    let lv = Liveness.compute (Cfg.of_proc (single_block_proc [ r1; r2 ] 1)) in
    Liveness.dead_stores lv
  in
  (* r1 <- 1 is overwritten before any read *)
  (match dead (Instr.Iconst (1, 1)) (Instr.Iconst (1, 2)) with
  | [ d ] ->
      check Alcotest.string "location"
        "warning: one/L0/0: dead store: r1 is never read" (Diag.to_string d)
  | ds -> Alcotest.failf "expected one dead store, got %d" (List.length ds));
  (* the implicit zero-init idiom is not flagged *)
  let lv =
    Liveness.compute
      (Cfg.of_proc
         (single_block_proc [ Instr.Iconst (1, 0); Instr.Iconst (1, 2) ] 1))
  in
  check Alcotest.int "zero-init tolerated" 0
    (List.length (Liveness.dead_stores lv));
  (* an instruction with side effects is never a dead store *)
  let lv =
    Liveness.compute
      (Cfg.of_proc
         (single_block_proc
            [ Instr.Load (1, 0, 0); Instr.Iconst (1, 2) ]
            1))
  in
  check Alcotest.int "loads kept" 0 (List.length (Liveness.dead_stores lv))

let test_uninit () =
  (* r2 <- r1 + r0 with only r0 a parameter: r1 may be uninitialised *)
  let proc = single_block_proc [ Instr.Ibinop (Instr.Add, 2, 1, 0) ] 2 in
  let u = Uninit.compute (Cfg.of_proc proc) in
  (* The parameter r0 is initialised; only r1 is reported. *)
  (match Uninit.warnings u with
  | [ d ] ->
      check Alcotest.string "warning"
        "warning: one/L0/0: r1 may be used uninitialised" (Diag.to_string d)
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws));
  (* a register defined on only one branch arm is still 'maybe' at the join;
     defined on both arms it is initialised *)
  let both_arms =
    let b =
      Builder.create ~name:"join" ~iparams:1 ~fparams:0
        ~returns:Proc.Returns_int
    in
    let l0 = Builder.new_block b in
    let l1 = Builder.new_block b in
    let l2 = Builder.new_block b in
    let l3 = Builder.new_block b in
    ignore l0;
    Builder.terminate b (Block.Br (0, l1, l2));
    Builder.switch_to b l1;
    Builder.emit b (Instr.Iconst (1, 1));
    Builder.terminate b (Block.Jmp l3);
    Builder.switch_to b l2;
    Builder.terminate b (Block.Jmp l3);
    Builder.switch_to b l3;
    Builder.terminate b (Block.Ret (Block.Ret_int 1));
    Builder.finish b
  in
  let u = Uninit.compute (Cfg.of_proc both_arms) in
  check Alcotest.int "one-armed define still flagged" 1
    (List.length (Uninit.warnings u))

let test_lint_unused () =
  let main =
    let b =
      Builder.create ~name:"main" ~iparams:0 ~fparams:0
        ~returns:Proc.Returns_void
    in
    ignore (Builder.new_block b);
    Builder.emit_call b ~callee:"used" ~args:[] ~fargs:[] ~ret:Instr.Rnone;
    Builder.terminate b (Block.Ret Block.Ret_void);
    Builder.finish b
  in
  let leaf name =
    let b =
      Builder.create ~name ~iparams:0 ~fparams:0 ~returns:Proc.Returns_void
    in
    ignore (Builder.new_block b);
    Builder.terminate b (Block.Ret Block.Ret_void);
    Builder.finish b
  in
  let prog =
    Program.make
      ~procs:[ main; leaf "used"; leaf "unused" ]
      ~globals:[] ~main:"main"
  in
  match Lint.run prog with
  | [ d ] ->
      check Alcotest.string "diagnostic"
        "warning: unused: unused function: never called from main"
        (Diag.to_string d)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let suite =
  [
    Alcotest.test_case "longest path" `Quick test_longest_path;
    Alcotest.test_case "edge transfer" `Quick test_edge_transfer;
    Alcotest.test_case "unreachable stays bottom" `Quick
      test_unreachable_bottom;
    Alcotest.test_case "convergence" `Quick test_convergence;
    Alcotest.test_case "solve visits in FIFO order" `Quick test_fifo_order;
    Alcotest.test_case "bitset" `Quick test_bitset;
    Alcotest.test_case "liveness" `Quick test_liveness;
    Alcotest.test_case "dead stores" `Quick test_dead_stores;
    Alcotest.test_case "uninitialised reads" `Quick test_uninit;
    Alcotest.test_case "unused functions" `Quick test_lint_unused;
  ]
