module Cfg = Pp_ir.Cfg
module Block = Pp_ir.Block
module I = Pp_ir.Instr
module Diag = Pp_ir.Diag
module Bitset = Dataflow.Bitset
module Gen_kill = Dataflow.Gen_kill

type t = { cfg : Cfg.t; regs : Regs.t; result : Gen_kill.result }

let block_sets regs universe (b : Block.t) =
  let gen = Bitset.create universe in
  let kill = Bitset.create universe in
  List.iter
    (fun instr ->
      List.iter
        (fun u -> if not (Bitset.mem kill u) then Bitset.add gen u)
        (Regs.uses regs instr);
      List.iter (Bitset.add kill) (Regs.defs regs instr))
    b.Block.instrs;
  List.iter
    (fun u -> if not (Bitset.mem kill u) then Bitset.add gen u)
    (Regs.term_uses regs b.Block.term);
  (gen, kill)

let compute (cfg : Cfg.t) =
  let p = cfg.Cfg.proc in
  let regs = Regs.of_proc p in
  let universe = Regs.universe regs in
  let sets = Array.map (block_sets regs universe) p.Pp_ir.Proc.blocks in
  let result =
    Gen_kill.solve ~direction:Dataflow.Backward cfg
      ~gen:(fun l -> fst sets.(l))
      ~kill:(fun l -> snd sets.(l))
      ~init:(Bitset.create universe)
  in
  { cfg; regs; result }

let live_in t label = Gen_kill.before t.result label
let live_out t label = Gen_kill.after t.result label

(* An instruction whose only observable effect is its register result.
   Division can trap, loads can fault, everything else with a side effect
   (stores, calls, prints, profiling ops, counter accesses) is kept even if
   its result dies. *)
let pure = function
  | I.Iconst _ | I.Iconst_sym _ | I.Fconst _ | I.Imov _ | I.Fmov _ | I.Icmp _
  | I.Icmp_imm _ | I.Fbinop _ | I.Fcmp _ | I.Itof _ | I.Ftoi _ | I.Frameaddr _
    ->
      true
  | I.Ibinop (op, _, _, _) -> ( match op with I.Div | I.Rem -> false | _ -> true)
  | I.Ibinop_imm (op, _, _, imm) -> (
      match op with I.Div | I.Rem -> imm <> 0 | _ -> true)
  | _ -> false

(* [int x;] lowers to an explicit zero initialiser; flagging those as dead
   stores would bury real findings, so they are skipped unless asked for. *)
let trivial_init = function
  | I.Iconst (_, 0) | I.Fconst (_, 0.0) -> true
  | _ -> false

let dead_stores t =
  let p = t.cfg.Cfg.proc in
  let diags = ref [] in
  Array.iter
    (fun (b : Block.t) ->
      match live_out t b.Block.label with
      | None -> () (* unreachable: reported separately *)
      | Some out ->
          let live = Bitset.copy out in
          List.iter (Bitset.add live) (Regs.term_uses t.regs b.Block.term);
          let instrs = Array.of_list b.Block.instrs in
          for i = Array.length instrs - 1 downto 0 do
            let instr = instrs.(i) in
            let defs = Regs.defs t.regs instr in
            let dead =
              defs <> []
              && List.for_all (fun d -> not (Bitset.mem live d)) defs
            in
            if
              dead && pure instr
              && not (trivial_init instr)
            then
              diags :=
                Diag.warning
                  (Diag.instr_loc p.Pp_ir.Proc.name b.Block.label i)
                  "dead store: %s is never read"
                  (String.concat ", " (List.map (Regs.name t.regs) defs))
                :: !diags;
            List.iter (Bitset.remove live) defs;
            List.iter (Bitset.add live) (Regs.uses t.regs instr)
          done)
    p.Pp_ir.Proc.blocks;
  List.rev !diags

(* A parameter whose incoming value is never read is not live into the
   entry block: every path either redefines it first or never touches
   it. *)
let unused_params t =
  let p = t.cfg.Cfg.proc in
  match live_in t p.Pp_ir.Proc.entry with
  | None -> []
  | Some live ->
      List.filter_map
        (fun id ->
          if Bitset.mem live id then None
          else
            Some
              (Diag.warning
                 (Diag.proc_loc p.Pp_ir.Proc.name)
                 "unused parameter: %s is never read"
                 (Regs.name t.regs id)))
        (Regs.params t.regs p)
