(* The EEL-analogue editor: placement decisions, splitting, call wrapping,
   and semantic neutrality of the edits. *)

module Editor = Pp_instrument.Editor
module Digraph = Pp_graph.Digraph
module Cfg = Pp_ir.Cfg
module I = Pp_ir.Instr
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc

let check = Alcotest.check

let marker n = I.Iconst (63, n)  (* a recognisable no-op-ish instruction *)

let find_marker (p : Proc.t) n =
  let hits = ref [] in
  Proc.iter_instrs
    (fun label instr -> if instr = marker n then hits := label :: !hits)
    p;
  List.rev !hits

let test_entry_preamble () =
  (* Entry code goes to a fresh preamble block, so a loop back to the old
     entry block never re-executes it. *)
  let p = Fixtures.loop_proc () in
  let ed = Editor.create p in
  Editor.at_entry ed Editor.Path_register [ marker 1 ];
  let p', _ = Editor.finish ed in
  Alcotest.(check bool) "entry moved" true (p'.Proc.entry >= Proc.num_blocks p);
  check (Alcotest.list Alcotest.int) "marker in preamble" [ p'.Proc.entry ]
    (find_marker p' 1);
  (* The preamble jumps to the original entry. *)
  match (Proc.block p' p'.Proc.entry).Block.term with
  | Block.Jmp l -> check Alcotest.int "jumps to old entry" p.Proc.entry l
  | _ -> Alcotest.fail "preamble must end in a jump"

let test_jump_edge_appended () =
  let p = Fixtures.figure1_proc () in
  let ed = Editor.create p in
  let cfg = Editor.cfg ed in
  (* C -> D is a Jump edge: code lands at the end of C. *)
  let e =
    List.find
      (fun (e : Digraph.edge) -> e.src = 2 && e.dst = 3)
      (Digraph.out_edges cfg.Cfg.graph 2)
  in
  Editor.on_edge ed Editor.Table_commit e [ marker 2 ];
  let p', _ = Editor.finish ed in
  check (Alcotest.list Alcotest.int) "in block C" [ 2 ] (find_marker p' 2);
  check Alcotest.int "no new blocks beyond preamble"
    (Proc.num_blocks p + 1) (Proc.num_blocks p')

let test_branch_edge_prepended_or_split () =
  let p = Fixtures.figure1_proc () in
  let ed = Editor.create p in
  let cfg = Editor.cfg ed in
  (* A -> B: B has in-degree 1, so the code is prepended to B. *)
  let a_b =
    List.find (fun (e : Digraph.edge) -> e.dst = 1)
      (Digraph.out_edges cfg.Cfg.graph 0)
  in
  Editor.on_edge ed Editor.Path_register a_b [ marker 3 ];
  (* A -> C: C has in-degree 2 (from A and B), so the edge is split. *)
  let a_c =
    List.find (fun (e : Digraph.edge) -> e.dst = 2)
      (Digraph.out_edges cfg.Cfg.graph 0)
  in
  Editor.on_edge ed Editor.Table_commit a_c [ marker 4 ];
  let p', counts = Editor.finish ed in
  let tally = Alcotest.(array int) in
  check (Alcotest.list Alcotest.int) "prepended to B" [ 1 ] (find_marker p' 3);
  (match find_marker p' 4 with
  | [ l ] ->
      Alcotest.(check bool) "in a fresh block" true (l >= Proc.num_blocks p);
      (* The fresh block jumps to C, and A's true arm was redirected. *)
      (match (Proc.block p' l).Block.term with
      | Block.Jmp 2 -> ()
      | _ -> Alcotest.fail "trampoline must jump to C");
      (* Per-entry counts: the split block's jump goes with its code, the
         empty preamble's with the editor's first edit. *)
      check tally "B retires its increment" [| 1; 0; 0; 0 |] counts.(1);
      check tally "the split retires its commit and jump" [| 0; 2; 0; 0 |]
        counts.(l);
      check tally "the preamble's jump" [| 1; 0; 0; 0 |]
        counts.(p'.Proc.entry);
      (match (Proc.block p' 0).Block.term with
      | Block.Br (_, t, _) -> check Alcotest.int "arm redirected" l t
      | _ -> Alcotest.fail "A must still branch")
  | _ -> Alcotest.fail "marker 4 must appear exactly once");
  (* Both arms of A with same destination stay distinguishable: the false
     arm was untouched. *)
  match (Proc.block p' 0).Block.term with
  | Block.Br (_, _, f) -> check Alcotest.int "false arm intact" 1 f
  | _ -> assert false

let test_return_edge_and_order () =
  let p = Fixtures.figure1_proc () in
  let ed = Editor.create p in
  let cfg = Editor.cfg ed in
  let ret_edge =
    List.find
      (fun (e : Digraph.edge) -> Cfg.role cfg e = Cfg.Return)
      (Digraph.out_edges cfg.Cfg.graph 5)
  in
  Editor.on_edge ed Editor.Table_commit ret_edge [ marker 5 ];
  Editor.before_returns ed Editor.Cct_probe [ marker 6 ];
  let p', _ = Editor.finish ed in
  (* Both in block F, return-edge code before the return code. *)
  let instrs = (Proc.block p' 5).Block.instrs in
  let pos n =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = marker n then i else go (i + 1) rest
    in
    go 0 instrs
  in
  Alcotest.(check bool) "edge code before return code" true
    (pos 5 >= 0 && pos 6 > pos 5)

let test_around_calls () =
  let b =
    Pp_ir.Builder.create ~name:"caller" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
  in
  ignore (Pp_ir.Builder.new_block b);
  Pp_ir.Builder.emit_call b ~callee:"x" ~args:[] ~fargs:[] ~ret:I.Rnone;
  Pp_ir.Builder.emit_call b ~callee:"y" ~args:[] ~fargs:[] ~ret:I.Rnone;
  Pp_ir.Builder.terminate b (Block.Ret Block.Ret_void);
  let p = Pp_ir.Builder.finish b in
  let ed = Editor.create p in
  Editor.around_calls ed Editor.Counter_read (fun ~site ~indirect:_ ->
      ([ marker (100 + site) ], [ marker (200 + site) ]));
  let p', _ = Editor.finish ed in
  let instrs = (Proc.block p' 0).Block.instrs in
  let expected =
    [
      marker 100;
      I.Call { callee = "x"; args = []; fargs = []; ret = I.Rnone; site = 0 };
      marker 200;
      marker 101;
      I.Call { callee = "y"; args = []; fargs = []; ret = I.Rnone; site = 1 };
      marker 201;
    ]
  in
  Alcotest.(check bool) "wrapped in order" true (instrs = expected)

let test_spill_slot_extends_frame () =
  let p = Fixtures.figure1_proc () in
  let ed = Editor.create p in
  let off1 = Editor.alloc_spill_slot ed in
  let off2 = Editor.alloc_spill_slot ed in
  let p', _ = Editor.finish ed in
  check Alcotest.int "offsets distinct" 8 (off2 - off1);
  check Alcotest.int "frame grew" (p.Proc.frame_words + 2)
    p'.Proc.frame_words

let test_edits_semantically_neutral () =
  (* Pure control-flow edits (markers into dead registers) must not change
     a program's observable behaviour. *)
  let src =
    {|
int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
void main() { print(fib(15)); }
|}
  in
  let prog = Pp_minic.Compile.program ~name:"t" src in
  let before = Pp_vm.Interp.run (Pp_vm.Interp.create prog) in
  let edited =
    Pp_ir.Program.map_procs
      (fun p ->
        let ed = Editor.create p in
        Editor.at_entry ed Editor.Path_register [ marker 0 ];
        Editor.before_returns ed Editor.Cct_probe [ marker 1 ];
        let cfg = Editor.cfg ed in
        Digraph.iter_edges
          (fun e ->
            match Cfg.role cfg e with
            | Cfg.Branch_true | Cfg.Branch_false | Cfg.Jump ->
                Editor.on_edge ed Editor.Table_commit e [ marker 2 ]
            | Cfg.Entry | Cfg.Return -> ())
          cfg.Cfg.graph;
        fst (Editor.finish ed))
      prog
  in
  Pp_ir.Validate.run edited;
  let after = Pp_vm.Interp.run (Pp_vm.Interp.create edited) in
  Alcotest.(check bool) "same output" true
    (before.Pp_vm.Interp.output = after.Pp_vm.Interp.output);
  Alcotest.(check bool) "edits cost instructions" true
    (after.Pp_vm.Interp.instructions > before.Pp_vm.Interp.instructions)

let suite =
  [
    Alcotest.test_case "entry preamble" `Quick test_entry_preamble;
    Alcotest.test_case "jump edges append" `Quick test_jump_edge_appended;
    Alcotest.test_case "branch edges prepend or split" `Quick
      test_branch_edge_prepended_or_split;
    Alcotest.test_case "return edge ordering" `Quick
      test_return_edge_and_order;
    Alcotest.test_case "around calls" `Quick test_around_calls;
    Alcotest.test_case "spill slots" `Quick test_spill_slot_extends_frame;
    Alcotest.test_case "edits are semantically neutral" `Quick
      test_edits_semantically_neutral;
  ]
