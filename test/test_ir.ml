(* Tests of the IR layer: builder, procedure checks, CFG view, layout and
   the validator. *)

open Pp_ir

let check = Alcotest.check

let simple_proc () =
  let b =
    Builder.create ~name:"p" ~iparams:1 ~fparams:0 ~returns:Proc.Returns_int
  in
  ignore (Builder.new_block b);
  let r = Builder.new_ireg b in
  Builder.emit b (Instr.Ibinop_imm (Instr.Add, r, 0, 1));
  Builder.terminate b (Block.Ret (Block.Ret_int r));
  Builder.finish b

let test_builder_counts () =
  let p = simple_proc () in
  check Alcotest.int "niregs" 2 p.Proc.niregs;
  check Alcotest.int "nfregs" 0 p.Proc.nfregs;
  check Alcotest.int "nsites" 0 p.Proc.nsites;
  check Alcotest.int "blocks" 1 (Proc.num_blocks p)

let test_builder_unterminated () =
  let b =
    Builder.create ~name:"q" ~iparams:0 ~fparams:0 ~returns:Proc.Returns_void
  in
  ignore (Builder.new_block b);
  match Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unterminated-block error"

let test_builder_sites_in_order () =
  let b =
    Builder.create ~name:"s" ~iparams:0 ~fparams:0 ~returns:Proc.Returns_void
  in
  ignore (Builder.new_block b);
  Builder.emit_call b ~callee:"f" ~args:[] ~fargs:[] ~ret:Instr.Rnone;
  Builder.emit_call b ~callee:"g" ~args:[] ~fargs:[] ~ret:Instr.Rnone;
  Builder.terminate b (Block.Ret Block.Ret_void);
  let p = Builder.finish b in
  check Alcotest.int "two sites" 2 p.Proc.nsites

let test_proc_rejects_dup_sites () =
  let mk site1 site2 =
    let call site =
      Instr.Call { callee = "f"; args = []; fargs = []; ret = Instr.Rnone;
                   site }
    in
    Proc.make ~frame_words:0 ~name:"bad" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
      ~blocks:
        [|
          { Block.label = 0; instrs = [ call site1; call site2 ];
            term = Block.Ret Block.Ret_void };
        |]
      ~entry:0
  in
  (match mk 0 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate sites accepted");
  match mk 0 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sparse sites accepted"

(* Register counts are derived from the code, so a negative index, or one
   so large that the count [r + 1] overflows, is the only way to name a
   register outside the frame: [Proc.make] refuses it wherever it appears,
   naming the procedure, and later writes to the caller's array cannot
   reach the procedure. *)
let test_proc_rejects_negative_regs () =
  let mk name instrs term =
    Proc.make ~frame_words:0 ~name ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
      ~blocks:[| { Block.label = 0; instrs; term } |]
      ~entry:0
  in
  let ret_void = Block.Ret Block.Ret_void in
  let rejects name instrs term =
    match mk name instrs term with
    | exception Invalid_argument msg ->
        let needle = "Proc.make(" ^ name ^ ")" in
        let n = String.length needle in
        if not (String.length msg >= n && String.sub msg 0 n = needle) then
          Alcotest.failf "%S does not name the procedure" msg
    | _ -> Alcotest.failf "%s: negative register accepted" name
  in
  rejects "int_instr" [ Instr.Ibinop_imm (Instr.Add, 0, -1, 1) ] ret_void;
  rejects "float_instr" [ Instr.Fconst (-2, 1.0) ] ret_void;
  rejects "branch" [] (Block.Br (-1, 0, 0));
  rejects "ret" [] (Block.Ret (Block.Ret_int (-3)));
  rejects "int_max" [ Instr.Iconst (max_int, 5) ] ret_void;
  rejects "float_max" [ Instr.Fconst (max_int, 1.0) ] ret_void;
  rejects "array_limit" [ Instr.Iconst (Sys.max_array_length, 5) ] ret_void;
  rejects "ret_max" [] (Block.Ret (Block.Ret_float max_int));
  let blocks = [| { Block.label = 0; instrs = []; term = ret_void } |] in
  let p =
    Proc.make ~frame_words:0 ~name:"copied" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void ~blocks ~entry:0
  in
  blocks.(0) <- { (blocks.(0)) with instrs = [ Instr.Iconst (7, 1) ] };
  check Alcotest.int "caller's array is copied" 0
    (List.length (Proc.block p 0).instrs)

let test_cfg_roles () =
  let p = Fixtures.figure1_proc () in
  let cfg = Cfg.of_proc p in
  check Alcotest.int "vertices = blocks + 2" 8
    (Pp_graph.Digraph.num_vertices cfg.Cfg.graph);
  let roles =
    Pp_graph.Digraph.fold_edges
      (fun e acc -> Cfg.role cfg e :: acc)
      cfg.Cfg.graph []
  in
  check Alcotest.int "one entry edge" 1
    (List.length (List.filter (fun r -> r = Cfg.Entry) roles));
  check Alcotest.int "one return edge" 1
    (List.length (List.filter (fun r -> r = Cfg.Return) roles));
  check Alcotest.int "three true arms" 3
    (List.length (List.filter (fun r -> r = Cfg.Branch_true) roles));
  Alcotest.(check string) "entry name" "ENTRY"
    (Cfg.vertex_name cfg cfg.Cfg.entry)

let test_layout_addresses () =
  let fig1 = Fixtures.figure1_proc () in
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
    Builder.terminate b (Block.Ret Block.Ret_void);
    Builder.finish b
  in
  let prog =
    Program.make ~procs:[ main; fig1 ]
      ~globals:
        [
          { Program.gname = "g1"; size_words = 4; init = None };
          { Program.gname = "g2"; size_words = 2; init = None };
        ]
      ~main:"main"
  in
  let layout = Layout.build prog in
  check Alcotest.int "main at code base" 0x4000_0000
    (Layout.proc_addr layout "main");
  Alcotest.(check bool) "fig1 after main, 32-aligned" true
    (let a = Layout.proc_addr layout "fig1" in
     a > Layout.proc_addr layout "main" && a mod 32 = 0);
  (* Instruction addresses advance by 4 within a block. *)
  let a0 = Layout.instr_addr layout ~proc:"main" ~label:0 ~index:0 in
  let a1 = Layout.instr_addr layout ~proc:"main" ~label:0 ~index:1 in
  check Alcotest.int "4-byte slots" 4 (a1 - a0);
  (* Globals are consecutive words. *)
  check Alcotest.int "g2 after g1"
    (Layout.global_addr layout "g1" + 32)
    (Layout.global_addr layout "g2");
  check Alcotest.int "data_end"
    (Layout.global_addr layout "g2" + 16)
    (Layout.data_end layout);
  check Alcotest.int "resolve finds procedures" (Layout.proc_addr layout "fig1")
    (Layout.resolve layout "fig1")

let expect_invalid prog_thunk =
  match prog_thunk () with
  | exception Validate.Invalid _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected validation failure"

let test_validate_errors () =
  let ret_void = Block.Ret Block.Ret_void in
  let proc_with instrs term =
    Proc.make ~frame_words:0 ~name:"m" ~iparams:0 ~fparams:0
      ~returns:Proc.Returns_void
      ~blocks:[| { Block.label = 0; instrs; term } |]
      ~entry:0
  in
  (* Call to a missing procedure. *)
  expect_invalid (fun () ->
      let p =
        proc_with
          [ Instr.Call { callee = "nope"; args = []; fargs = [];
                         ret = Instr.Rnone; site = 0 } ]
          ret_void
      in
      Validate.run (Program.make ~procs:[ p ] ~globals:[] ~main:"m"));
  (* Dangling symbol. *)
  expect_invalid (fun () ->
      let p = proc_with [ Instr.Iconst_sym (0, "ghost") ] ret_void in
      Validate.run (Program.make ~procs:[ p ] ~globals:[] ~main:"m"));
  (* Wrong return kind. *)
  expect_invalid (fun () ->
      let callee =
        Proc.make ~frame_words:0 ~name:"f" ~iparams:0 ~fparams:0
          ~returns:Proc.Returns_void
          ~blocks:[| { Block.label = 0; instrs = []; term = ret_void } |]
          ~entry:0
      in
      let p =
        proc_with
          [ Instr.Call { callee = "f"; args = []; fargs = [];
                         ret = Instr.Rint 0; site = 0 } ]
          ret_void
      in
      Validate.run
        (Program.make ~procs:[ p; callee ] ~globals:[] ~main:"m"));
  (* Infinite loop: a block that cannot reach a return. *)
  expect_invalid (fun () ->
      let p =
        Proc.make ~frame_words:0 ~name:"m" ~iparams:0 ~fparams:0
          ~returns:Proc.Returns_void
          ~blocks:
            [|
              { Block.label = 0; instrs = []; term = Block.Jmp 1 };
              { Block.label = 1; instrs = []; term = Block.Jmp 1 };
            |]
          ~entry:0
      in
      Validate.run (Program.make ~procs:[ p ] ~globals:[] ~main:"m"));
  (* Bad pic index. *)
  expect_invalid (fun () ->
      let p = proc_with [ Instr.Hwread (0, 2) ] ret_void in
      Validate.run (Program.make ~procs:[ p ] ~globals:[] ~main:"m"))

let test_program_checks () =
  let p = simple_proc () in
  (* main must exist and take no parameters. *)
  (match Program.make ~procs:[ p ] ~globals:[] ~main:"p" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "main with params accepted");
  match
    Program.make ~procs:[]
      ~globals:
        [
          { Program.gname = "g"; size_words = 1;
            init = Some (Program.Init_ints [| 1; 2 |]) };
        ]
      ~main:"x"
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized init accepted"

let test_instr_slots () =
  check Alcotest.int "plain instruction" 1
    (Instr.slots (Instr.Iconst (0, 1)));
  Alcotest.(check bool) "cct_enter is a large stub" true
    (Instr.slots (Instr.Prof (Instr.Cct_enter { proc_addr = 0; nsites = 4 }))
     > 4)

let test_defs_uses () =
  let i = Instr.Ibinop (Instr.Add, 3, 1, 2) in
  check (Alcotest.list Alcotest.int) "defs" [ 3 ] (Instr.idefs i);
  check (Alcotest.list Alcotest.int) "uses" [ 1; 2 ] (Instr.iuses i);
  let st = Instr.Fstore (4, 5, 8) in
  check (Alcotest.list Alcotest.int) "fstore fuses" [ 4 ] (Instr.fuses st);
  check (Alcotest.list Alcotest.int) "fstore iuses" [ 5 ] (Instr.iuses st)

let suite =
  [
    Alcotest.test_case "builder derives counts" `Quick test_builder_counts;
    Alcotest.test_case "builder rejects unterminated" `Quick
      test_builder_unterminated;
    Alcotest.test_case "call sites numbered" `Quick
      test_builder_sites_in_order;
    Alcotest.test_case "proc rejects bad sites" `Quick
      test_proc_rejects_dup_sites;
    Alcotest.test_case "cfg roles" `Quick test_cfg_roles;
    Alcotest.test_case "layout addresses" `Quick test_layout_addresses;
    Alcotest.test_case "validator catches errors" `Quick test_validate_errors;
    Alcotest.test_case "program checks" `Quick test_program_checks;
    Alcotest.test_case "instruction slots" `Quick test_instr_slots;
    Alcotest.test_case "defs and uses" `Quick test_defs_uses;
    Alcotest.test_case "proc rejects negative registers" `Quick
      test_proc_rejects_negative_regs;
  ]
