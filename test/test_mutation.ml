(* Mutation testing of the static verifier: corrupt instrumented code in
   ways that change what gets counted — drop a commit, bump an increment,
   skip a PIC restore — and require `pp check` to flag every mutant with a
   located diagnostic.  A verifier that misses a mutant would also bless a
   buggy instrumenter. *)

open Pp_ir
module Instrument = Pp_instrument.Instrument
module Verifier = Pp_analysis.Verifier

(* A program with both an acyclic branchy procedure (figure 1) and a loop,
   so mutants can target forward increments, backedge commits and return
   commits alike. *)
let program () =
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

(* Rewrite the [n]-th instruction satisfying [select] across the whole
   program ([`Drop] or [`Replace]); returns the mutant and how many
   instructions matched in total. *)
let mutate prog ~n ~select ~action =
  let count = ref 0 in
  let mutant =
    Program.map_procs
      (fun p ->
        let blocks =
          Array.map
            (fun (b : Block.t) ->
              let instrs =
                List.filter_map
                  (fun i ->
                    if not (select i) then Some i
                    else begin
                      let k = !count in
                      incr count;
                      if k <> n then Some i
                      else
                        match action i with
                        | `Drop -> None
                        | `Replace i' -> Some i'
                    end)
                  b.Block.instrs
              in
              { b with Block.instrs })
            p.Proc.blocks
        in
        Proc.with_blocks p blocks)
      prog
  in
  (mutant, !count)

let instrument ?(options = Instrument.default_options) ~mode prog =
  Instrument.run ~options ~mode prog

(* Every mutant must produce at least one error, and every error must name
   a procedure (and, unless it is a whole-program finding, a block). *)
let expect_flagged ~what ~original ~manifest mutant =
  match Verifier.verify_program ~original ~manifest mutant with
  | [] -> Alcotest.failf "mutant not flagged: %s" what
  | diags ->
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.severity <> Diag.Error then
            Alcotest.failf "%s: non-error diagnostic %S" what
              (Diag.to_string d);
          if d.Diag.loc.Diag.proc = "" then
            Alcotest.failf "%s: diagnostic without a location" what)
        diags

(* Also insist the unmutated instrumentation verifies clean, so the
   mutation signal is meaningful. *)
let clean ?options ~mode () =
  let prog = program () in
  let instrumented, manifest = instrument ?options ~mode prog in
  (match Verifier.verify_program ~original:prog ~manifest instrumented with
  | [] -> ()
  | d ->
      Alcotest.failf "baseline not clean: %s"
        (String.concat "; " (List.map Diag.to_string d)));
  (prog, instrumented, manifest)

let run_mutation ?options ~mode ~what ~select ~action () =
  let prog, instrumented, manifest = clean ?options ~mode () in
  let mutant, total = mutate instrumented ~n:0 ~select ~action in
  if total = 0 then Alcotest.failf "no mutation site: %s" what;
  expect_flagged ~what ~original:prog ~manifest mutant

let is_self_add = function
  | Instr.Ibinop_imm (Instr.Add, rd, rs, _) -> rd = rs
  | _ -> false

let test_drop_freq_store () =
  (* array-table path commit: dropping the counter store loses the path *)
  run_mutation ~mode:Instrument.Flow_freq ~what:"drop commit store"
    ~select:(function Instr.Store _ -> true | _ -> false)
    ~action:(fun _ -> `Drop) ()

let test_drop_hash_commit () =
  let options = { Instrument.default_options with array_threshold = 0 } in
  run_mutation ~options ~mode:Instrument.Flow_freq ~what:"drop hash commit"
    ~select:(function
      | Instr.Prof (Instr.Path_commit_hash _) -> true
      | _ -> false)
    ~action:(fun _ -> `Drop) ()

let test_bump_increment () =
  run_mutation ~mode:Instrument.Flow_freq ~what:"bump path increment"
    ~select:is_self_add
    ~action:(function
      | Instr.Ibinop_imm (op, rd, rs, n) ->
          `Replace (Instr.Ibinop_imm (op, rd, rs, n + 1))
      | _ -> assert false)
    ()

let test_corrupt_reset () =
  (* Iconst r 0 sites are the path-register init and backedge resets *)
  run_mutation ~mode:Instrument.Flow_freq ~what:"corrupt init/reset"
    ~select:(function Instr.Iconst (_, 0) -> true | _ -> false)
    ~action:(function
      | Instr.Iconst (r, _) -> `Replace (Instr.Iconst (r, 1))
      | _ -> assert false)
    ()

let test_skip_pic_save () =
  run_mutation ~mode:Instrument.Flow_hw ~what:"skip PIC save"
    ~select:(function Instr.Hwread _ -> true | _ -> false)
    ~action:(fun _ -> `Drop) ()

let test_skip_pic_restore () =
  run_mutation ~mode:Instrument.Flow_hw ~what:"skip PIC restore"
    ~select:(function Instr.Hwwrite _ -> true | _ -> false)
    ~action:(fun _ -> `Drop) ()

let test_skip_hwzero () =
  run_mutation ~mode:Instrument.Flow_hw ~what:"skip counter zeroing"
    ~select:(function Instr.Hwzero -> true | _ -> false)
    ~action:(fun _ -> `Drop) ()

let test_drop_cct_exit () =
  run_mutation ~mode:Instrument.Context_hw ~what:"drop cct_exit"
    ~select:(function Instr.Prof Instr.Cct_exit -> true | _ -> false)
    ~action:(fun _ -> `Drop) ()

let test_drop_cct_call () =
  run_mutation ~mode:Instrument.Context_hw ~what:"drop cct_call"
    ~select:(function Instr.Prof (Instr.Cct_call _) -> true | _ -> false)
    ~action:(fun _ -> `Drop) ()

let test_drop_cct_commit () =
  run_mutation ~mode:Instrument.Context_flow ~what:"drop cct path commit"
    ~select:(function
      | Instr.Prof (Instr.Path_commit_cct _) -> true
      | _ -> false)
    ~action:(fun _ -> `Drop) ()

(* Every PIC read in flow-hw is load-bearing — the entry saves, the
   read-after-write idiom after the entry and backedge re-zeroing, and the
   per-commit readings — so dropping any single one must be flagged.  A
   deterministic sweep (the QCheck drop property only samples this space;
   the backedge idiom read was once missable). *)
let test_drop_any_pic_read () =
  let select = function Instr.Hwread _ -> true | _ -> false in
  let prog, instrumented, manifest = clean ~mode:Instrument.Flow_hw () in
  let _, total =
    mutate instrumented ~n:(-1) ~select ~action:(fun i -> `Replace i)
  in
  if total = 0 then Alcotest.fail "no PIC reads to mutate";
  for n = 0 to total - 1 do
    let mutant, _ = mutate instrumented ~n ~select ~action:(fun _ -> `Drop) in
    expect_flagged
      ~what:(Printf.sprintf "drop PIC read %d of %d" n total)
      ~original:prog ~manifest mutant
  done

let test_shift_edge_counter () =
  (* moving the edge counter store to a neighbouring cell counts the wrong
     edge: the chord's own counter is then missing *)
  run_mutation ~mode:Instrument.Edge_freq ~what:"shift edge counter"
    ~select:(function Instr.Store _ -> true | _ -> false)
    ~action:(function
      | Instr.Store (rs, rb, off) -> `Replace (Instr.Store (rs, rb, off + 8))
      | _ -> assert false)
    ()

(* Randomised sweep: every increment site, in both placements, bumped by a
   random delta, must be caught.  (Index and delta come from qcheck.) *)
let prop_any_increment =
  QCheck.Test.make ~name:"mutation: every corrupted increment is flagged"
    ~count:60
    QCheck.(triple (int_range 0 1000) (int_range 1 5) bool)
    (fun (idx, delta, optimized) ->
      let options =
        { Instrument.default_options with optimize_placement = optimized }
      in
      let prog = program () in
      let instrumented, manifest =
        instrument ~options ~mode:Instrument.Flow_freq prog
      in
      (* probe the number of sites, then hit idx mod total *)
      let _, total =
        mutate instrumented ~n:(-1) ~select:is_self_add
          ~action:(fun i -> `Replace i)
      in
      QCheck.assume (total > 0);
      let mutant, _ =
        mutate instrumented ~n:(idx mod total) ~select:is_self_add
          ~action:(function
            | Instr.Ibinop_imm (op, rd, rs, n) ->
                `Replace (Instr.Ibinop_imm (op, rd, rs, n + delta))
            | i -> `Replace i)
      in
      Verifier.verify_program ~original:prog ~manifest mutant <> [])

(* And dropping any single profiling side effect (store, prof op, hw op)
   must be caught in every mode. *)
let prop_any_drop =
  QCheck.Test.make ~name:"mutation: every dropped side effect is flagged"
    ~count:80
    QCheck.(pair (int_range 0 1000) (int_range 0 4))
    (fun (idx, mode_idx) ->
      let mode = List.nth Instrument.all_modes mode_idx in
      let select = function
        | Instr.Store _ | Instr.Prof _ | Instr.Hwzero | Instr.Hwread _
        | Instr.Hwwrite _ ->
            true
        | _ -> false
      in
      let prog = program () in
      let instrumented, manifest = instrument ~mode prog in
      let _, total =
        mutate instrumented ~n:(-1) ~select ~action:(fun i -> `Replace i)
      in
      QCheck.assume (total > 0);
      let mutant, _ =
        mutate instrumented ~n:(idx mod total) ~select ~action:(fun _ ->
            `Drop)
      in
      Verifier.verify_program ~original:prog ~manifest mutant <> [])

let suite =
  [
    Alcotest.test_case "drop commit store" `Quick test_drop_freq_store;
    Alcotest.test_case "drop hash commit" `Quick test_drop_hash_commit;
    Alcotest.test_case "bump increment" `Quick test_bump_increment;
    Alcotest.test_case "corrupt init/reset" `Quick test_corrupt_reset;
    Alcotest.test_case "skip PIC save" `Quick test_skip_pic_save;
    Alcotest.test_case "skip PIC restore" `Quick test_skip_pic_restore;
    Alcotest.test_case "skip hwzero" `Quick test_skip_hwzero;
    Alcotest.test_case "drop cct_exit" `Quick test_drop_cct_exit;
    Alcotest.test_case "drop cct_call" `Quick test_drop_cct_call;
    Alcotest.test_case "drop cct commit" `Quick test_drop_cct_commit;
    Alcotest.test_case "drop any PIC read" `Quick test_drop_any_pic_read;
    Alcotest.test_case "shift edge counter" `Quick test_shift_edge_counter;
    QCheck_alcotest.to_alcotest prop_any_increment;
    QCheck_alcotest.to_alcotest prop_any_drop;
  ]
