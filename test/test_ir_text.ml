(* The textual IR: emit/parse round trips and error handling. *)

module Ir_text = Pp_ir.Ir_text
module Program = Pp_ir.Program

let check = Alcotest.check

let roundtrip (p : Program.t) =
  let text = Ir_text.to_string p in
  let p' = Ir_text.parse text in
  let text' = Ir_text.to_string p' in
  if text <> text' then
    Alcotest.failf "round trip diverged:@.--- first@.%s@.--- second@.%s" text
      text'

let test_roundtrip_fig1 () =
  roundtrip (Pp_core.Paper_examples.figure1_program ())

let test_roundtrip_workloads () =
  (* Every workload (with floats, 2-D arrays, indirect calls, recursion)
     survives the round trip; instrumented versions add prof ops, hw ops,
     frameaddr and split blocks. *)
  List.iter
    (fun name ->
      let w = Option.get (Pp_workloads.Registry.find name) in
      let prog = Pp_workloads.Workload.compile w in
      roundtrip prog;
      List.iter
        (fun mode ->
          let instrumented, _ = Pp_instrument.Instrument.run ~mode prog in
          roundtrip instrumented)
        Pp_instrument.Instrument.all_modes)
    [ "m88k_like"; "tomcatv_like"; "li_like" ]

let test_parsed_program_runs () =
  (* Executing the reparsed program gives identical output and counters. *)
  let w = Option.get (Pp_workloads.Registry.find "compress_like") in
  let prog = Pp_workloads.Workload.compile w in
  let reparsed = Ir_text.parse (Ir_text.to_string prog) in
  let run p =
    Pp_vm.Interp.run (Pp_vm.Interp.create ~max_instructions:100_000_000 p)
  in
  let a = run prog and b = run reparsed in
  Alcotest.(check bool) "same output" true
    (a.Pp_vm.Interp.output = b.Pp_vm.Interp.output);
  Alcotest.(check int) "same cycles" a.Pp_vm.Interp.cycles
    b.Pp_vm.Interp.cycles

let test_float_exactness () =
  (* Hex float literals keep exact bits — including values that decimal
     printing would mangle. *)
  let b =
    Pp_ir.Builder.create ~name:"main" ~iparams:0 ~fparams:0
      ~returns:Pp_ir.Proc.Returns_void
  in
  ignore (Pp_ir.Builder.new_block b);
  let f = Pp_ir.Builder.new_freg b in
  Pp_ir.Builder.emit b (Pp_ir.Instr.Fconst (f, 0.1));
  Pp_ir.Builder.emit b (Pp_ir.Instr.Print_float f);
  Pp_ir.Builder.terminate b (Pp_ir.Block.Ret Pp_ir.Block.Ret_void);
  let prog =
    Program.make ~procs:[ Pp_ir.Builder.finish b ]
      ~globals:
        [
          { Program.gname = "g"; size_words = 2;
            init = Some (Program.Init_floats [| 0.1; 1e-300 |]) };
        ]
      ~main:"main"
  in
  let reparsed = Ir_text.parse (Ir_text.to_string prog) in
  match Program.find_global reparsed "g" with
  | Some { init = Some (Program.Init_floats [| a; b |]); _ } ->
      Alcotest.(check bool) "bits preserved" true (a = 0.1 && b = 1e-300)
  | _ -> Alcotest.fail "global lost"

let test_parse_errors () =
  let bad text =
    match Ir_text.parse text with
    | exception Ir_text.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted: %s" text
  in
  bad "";
  bad "program main=x\nproc x iparams=0 fparams=0 returns=void frame=0 \
       entry=0\nL0:\n  iconst r0 1\n";
  (* unterminated block *)
  bad "program main=x\n  iconst r0 1\n";
  (* instruction outside a procedure *)
  bad "program main=x\nproc x iparams=0 fparams=0 returns=void frame=0 \
       entry=0\nL0:\n  bogus r0\n  ret\n";
  bad "program main=missing\n"

(* A negative register index is a malformed operand: the parser rejects
   it on its own line, with the same message as any other bad register. *)
let test_negative_register () =
  let rejects ~instr ~found =
    let text =
      "program main=x\n\
       proc x iparams=0 fparams=0 returns=void frame=0 entry=0\n\
       L0:\n\
      \  iconst r0 1\n  " ^ instr ^ "\n  ret\n"
    in
    match Ir_text.parse text with
    | exception Ir_text.Parse_error (line, msg) ->
        check Alcotest.int (instr ^ ": line") 5 line;
        check Alcotest.string (instr ^ ": message") found msg
    | _ -> Alcotest.failf "accepted: %s" instr
  in
  rejects ~instr:"iconst r-1 5" ~found:"expected r-register, found \"r-1\"";
  rejects ~instr:"fconst f-2 1.5" ~found:"expected f-register, found \"f-2\"";
  rejects ~instr:"ibin add r1 r0 r-3"
    ~found:"expected r-register, found \"r-3\"";
  (* [max_int + 1] would overflow the register count. *)
  let big = string_of_int max_int in
  rejects ~instr:("iconst r" ^ big ^ " 5")
    ~found:(Printf.sprintf "expected r-register, found \"r%s\"" big);
  rejects ~instr:("fconst f" ^ big ^ " 1.5")
    ~found:(Printf.sprintf "expected f-register, found \"f%s\"" big)

let test_comments_and_blanks () =
  let text =
    "# a comment\n\
     program main=m\n\
     \n\
     proc m iparams=0 fparams=0 returns=void frame=0 entry=0\n\
     L0:\n\
     # inner comment\n\
     \  iconst r0 5\n\
     \  printi r0\n\
     \  ret\n"
  in
  let prog = Ir_text.parse text in
  let r = Pp_vm.Interp.run (Pp_vm.Interp.create prog) in
  Alcotest.(check bool) "prints 5" true
    (r.Pp_vm.Interp.output = [ Pp_vm.Interp.Oint 5 ])

let suite =
  [
    Alcotest.test_case "roundtrip figure-1 program" `Quick
      test_roundtrip_fig1;
    Alcotest.test_case "roundtrip workloads (+instrumented)" `Quick
      test_roundtrip_workloads;
    Alcotest.test_case "reparsed program runs identically" `Quick
      test_parsed_program_runs;
    Alcotest.test_case "float exactness" `Quick test_float_exactness;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments and blank lines" `Quick
      test_comments_and_blanks;
    Alcotest.test_case "negative register index" `Quick
      test_negative_register;
  ]
