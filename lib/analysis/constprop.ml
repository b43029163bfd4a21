(* Conditional constant propagation over the CFG (block-granular SCCP in
   the style of Wegman–Zadeck): the analysis tracks, per integer register,
   whether it holds a compile-time constant, and propagates only along CFG
   edges proven executable.  A conditional branch whose condition register
   is constant enables just the matching arm, so code guarded by the dead
   arm never contributes to the fixpoint.

   The value lattice is [Top] (unknown) above [Const n]; "unreached" is
   represented by a block having no in-state at all.  Folding mirrors the
   VM's integer semantics ({!Pp_vm.Interp}) exactly: OCaml native-width
   arithmetic, shifts masked to 6 bits, arithmetic right shift, and
   division/remainder by a constant zero treated as [Top] (the VM traps;
   the analysis must not pretend to know the result). *)

module Cfg = Pp_ir.Cfg
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module I = Pp_ir.Instr
module Digraph = Pp_graph.Digraph

type value = Top | Const of int

let join a b =
  match (a, b) with
  | Const x, Const y when x = y -> a
  | _ -> Top

let shift_mask = 63

let fold_ibinop op a b =
  match (op : I.ibinop) with
  | I.Add -> Const (a + b)
  | I.Sub -> Const (a - b)
  | I.Mul -> Const (a * b)
  | I.Div -> if b = 0 then Top else Const (a / b)
  | I.Rem -> if b = 0 then Top else Const (a mod b)
  | I.And -> Const (a land b)
  | I.Or -> Const (a lor b)
  | I.Xor -> Const (a lxor b)
  | I.Shl -> Const (a lsl (b land shift_mask))
  | I.Shr -> Const (a asr (b land shift_mask))

let fold_icmp c a b =
  let r =
    match (c : I.cmp) with
    | I.Eq -> a = b
    | I.Ne -> a <> b
    | I.Lt -> a < b
    | I.Le -> a <= b
    | I.Gt -> a > b
    | I.Ge -> a >= b
  in
  Const (if r then 1 else 0)

(* Destructively advance [state] across one instruction. *)
let transfer state (instr : I.t) =
  let get r = state.(r) in
  let set r v = state.(r) <- v in
  match instr with
  | I.Iconst (rd, n) -> set rd (Const n)
  | I.Imov (rd, rs) -> set rd (get rs)
  | I.Ibinop (op, rd, rs1, rs2) -> (
      match (get rs1, get rs2) with
      | Const a, Const b -> set rd (fold_ibinop op a b)
      | _ -> set rd Top)
  | I.Ibinop_imm (op, rd, rs, imm) -> (
      match get rs with
      | Const a -> set rd (fold_ibinop op a imm)
      | Top -> set rd Top)
  | I.Icmp (c, rd, rs1, rs2) -> (
      match (get rs1, get rs2) with
      | Const a, Const b -> set rd (fold_icmp c a b)
      | _ -> set rd Top)
  | I.Icmp_imm (c, rd, rs, imm) -> (
      match get rs with
      | Const a -> set rd (fold_icmp c a imm)
      | Top -> set rd Top)
  | _ ->
      (* Loads, calls, counter reads, symbol addresses, … — anything whose
         result the analysis cannot model kills its integer definitions. *)
      List.iter (fun rd -> set rd Top) (I.idefs instr)

type t = {
  entry_states : value array option array;  (* per block label *)
  exit_states : value array option array;
  branch_vals : value option array;  (* Br condition value, per label *)
  edge_exec : bool array;  (* per edge id *)
}

(* Out-edges of a reached block that its terminator can actually take,
   given the branch condition's abstract value. *)
let executable_out_edges (cfg : Cfg.t) (b : Block.t) cond =
  let edges = Digraph.out_edges cfg.Cfg.graph (Cfg.vertex_of_label cfg b.Block.label) in
  match b.Block.term with
  | Block.Jmp _ | Block.Ret _ -> edges
  | Block.Br _ -> (
      match cond with
      | Top -> edges
      | Const c ->
          let want : Cfg.edge_role = if c <> 0 then Cfg.Branch_true else Cfg.Branch_false in
          List.filter (fun e -> Cfg.role cfg e = want) edges)

let analyze (cfg : Cfg.t) =
  let proc = cfg.Cfg.proc in
  let nblocks = Proc.num_blocks proc in
  let nregs = max proc.Proc.niregs 1 in
  let exit_states = Array.make nblocks None in
  let branch_vals = Array.make nblocks None in
  let edge_exec = Array.make (Digraph.num_edges cfg.Cfg.graph) false in
  (* ENTRY -> entry block: parameters and everything else unknown. *)
  (match Digraph.out_edges cfg.Cfg.graph cfg.Cfg.entry with
  | [ e ] -> edge_exec.(e.Digraph.id) <- true
  | _ -> invalid_arg "Constprop.analyze: malformed ENTRY");
  let step l in_state =
    let b = Proc.block proc l in
    let state = Array.copy in_state in
    List.iter (transfer state) b.Block.instrs;
    exit_states.(l) <- Some state;
    let cond =
      match b.Block.term with
      | Block.Br (r, _, _) ->
          let v = state.(r) in
          branch_vals.(l) <- Some v;
          v
      | _ -> Top
    in
    List.filter_map
      (fun (e : Digraph.edge) ->
        edge_exec.(e.Digraph.id) <- true;
        (* EXIT has no label; each successor gets its own copy, since
           [merge] joins into a stored state in place. *)
        Option.map
          (fun dst -> (dst, Array.copy state))
          (Cfg.label_of_vertex cfg e.Digraph.dst))
      (executable_out_edges cfg b cond)
  in
  let merge _ old state =
    let changed = ref false in
    Array.iteri
      (fun i v ->
        let j = join old.(i) v in
        if j <> old.(i) then begin
          old.(i) <- j;
          changed := true
        end)
      state;
    if !changed then Some old else None
  in
  let entry_states =
    Dataflow.solve ~size:nblocks ~start:proc.Proc.entry
      ~init:(Array.make nregs Top) ~step ~merge
  in
  { entry_states; exit_states; branch_vals; edge_exec }

let reachable t l = t.entry_states.(l) <> None
let edge_executable t (e : Digraph.edge) = t.edge_exec.(e.Digraph.id)

let entry_state t l =
  Option.map Array.copy t.entry_states.(l)

let exit_state t l =
  Option.map Array.copy t.exit_states.(l)

let branch_value t l = t.branch_vals.(l)
