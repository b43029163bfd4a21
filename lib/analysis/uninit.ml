module Cfg = Pp_ir.Cfg
module Block = Pp_ir.Block
module Diag = Pp_ir.Diag
module Bitset = Dataflow.Bitset
module Gen_kill = Dataflow.Gen_kill

type t = { cfg : Cfg.t; regs : Regs.t; result : Gen_kill.result }

let compute (cfg : Cfg.t) =
  let p = cfg.Cfg.proc in
  let regs = Regs.of_proc p in
  let universe = Regs.universe regs in
  let empty = Bitset.create universe in
  let kills =
    Array.map
      (fun (b : Block.t) ->
        let kill = Bitset.create universe in
        List.iter
          (fun instr -> List.iter (Bitset.add kill) (Regs.defs regs instr))
          b.Block.instrs;
        kill)
      p.Pp_ir.Proc.blocks
  in
  (* May-be-uninitialised: everything but the parameters at entry; a
     register leaves the set only when every path defines it. *)
  let init = Bitset.full universe in
  List.iter (Bitset.remove init) (Regs.params regs p);
  let result =
    Gen_kill.solve ~direction:Dataflow.Forward cfg
      ~gen:(fun _ -> empty)
      ~kill:(fun l -> kills.(l))
      ~init
  in
  { cfg; regs; result }

let maybe_uninit_in t label = Gen_kill.before t.result label

let warnings t =
  let p = t.cfg.Cfg.proc in
  let diags = ref [] in
  let warn loc regs =
    List.iter
      (fun r ->
        diags :=
          Diag.warning loc "%s may be used uninitialised" (Regs.name t.regs r)
          :: !diags)
      regs
  in
  Array.iter
    (fun (b : Block.t) ->
      match maybe_uninit_in t b.Block.label with
      | None -> ()
      | Some set ->
          let uninit = Bitset.copy set in
          List.iteri
            (fun i instr ->
              let bad =
                List.filter (Bitset.mem uninit) (Regs.uses t.regs instr)
              in
              warn (Diag.instr_loc p.Pp_ir.Proc.name b.Block.label i) bad;
              List.iter (Bitset.remove uninit) (Regs.defs t.regs instr))
            b.Block.instrs;
          let bad =
            List.filter (Bitset.mem uninit) (Regs.term_uses t.regs b.Block.term)
          in
          warn (Diag.term_loc p.Pp_ir.Proc.name b.Block.label) bad)
    p.Pp_ir.Proc.blocks;
  List.rev !diags
