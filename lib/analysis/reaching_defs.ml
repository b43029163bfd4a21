module Cfg = Pp_ir.Cfg
module Block = Pp_ir.Block
module Bitset = Dataflow.Bitset
module Gen_kill = Dataflow.Gen_kill

type site = {
  block : Block.label;
  index : int;  (** -1 for the implicit parameter definition at entry *)
  reg : int;  (** encoded as in {!Regs} *)
}

type t = {
  cfg : Cfg.t;
  regs : Regs.t;
  sites : site array;
  result : Gen_kill.result;
}

let compute (cfg : Cfg.t) =
  let p = cfg.Cfg.proc in
  let regs = Regs.of_proc p in
  let sites = ref [] in
  let nsites = ref 0 in
  let add_site s =
    sites := s :: !sites;
    incr nsites;
    !nsites - 1
  in
  (* Parameters are defined "before" the entry block. *)
  let param_sites =
    List.map
      (fun reg -> add_site { block = p.Pp_ir.Proc.entry; index = -1; reg })
      (Regs.params regs p)
  in
  let by_reg = Array.make (Regs.universe regs) [] in
  let block_sites =
    Array.map
      (fun (b : Block.t) ->
        List.mapi
          (fun i instr ->
            List.map
              (fun reg ->
                let id = add_site { block = b.Block.label; index = i; reg } in
                by_reg.(reg) <- id :: by_reg.(reg);
                (id, reg))
              (Regs.defs regs instr))
          b.Block.instrs
        |> List.concat)
      p.Pp_ir.Proc.blocks
  in
  List.iter2
    (fun id reg -> by_reg.(reg) <- id :: by_reg.(reg))
    param_sites
    (Regs.params regs p);
  let universe = !nsites in
  let sites = Array.of_list (List.rev !sites) in
  let gen_kill =
    Array.map
      (fun defs ->
        let gen = Bitset.create universe in
        let kill = Bitset.create universe in
        (* Later defs of the same register shadow earlier ones. *)
        List.iter
          (fun (id, reg) ->
            List.iter
              (fun other ->
                Bitset.remove gen other;
                Bitset.add kill other)
              by_reg.(reg);
            Bitset.add gen id;
            Bitset.remove kill id)
          defs;
        (gen, kill))
      block_sites
  in
  let init = Bitset.create universe in
  List.iter (Bitset.add init) param_sites;
  let result =
    Gen_kill.solve ~direction:Dataflow.Forward cfg
      ~gen:(fun l -> fst gen_kill.(l))
      ~kill:(fun l -> snd gen_kill.(l))
      ~init
  in
  { cfg; regs; sites; result }

let num_sites t = Array.length t.sites
let site t id = t.sites.(id)

let to_sites t set =
  List.map (fun id -> t.sites.(id)) (Bitset.elements set)

let reaching_in t label =
  Option.map (to_sites t) (Gen_kill.before t.result label)

let reaching_out t label =
  Option.map (to_sites t) (Gen_kill.after t.result label)
