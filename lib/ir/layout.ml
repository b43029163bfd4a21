let data_base = 0x0002_0000
let prof_base = 0x0800_0000
let stack_limit = 0x1000_0000
let stack_base = 0x1040_0000
let code_base = 0x4000_0000
let word = 8

(* The frame linkage the call sequence and the CCT stubs use: the
   saved-gCSP word at fp and the two PIC snapshot words at fp+8 /
   fp+16, below the frame's addressable area. *)
let linkage_bytes = 32

(* Figure-7-style CCT record footprint: ID, parent, three metric words,
   one callee slot per site. *)
let record_words nsites = 2 + 3 + max 1 nsites
let instr_bytes = 4

type proc_layout = {
  base : int;
  instr_off : int array array;  (* per label, per instruction index
                                   (terminator = last), byte offset *)
  limit : int;  (* first address past the procedure *)
}

type t = {
  procs : (string, proc_layout) Hashtbl.t;
  proc_order : (int * string) list;  (* sorted by base address *)
  globals : (string, int) Hashtbl.t;
  data_end : int;
}

let layout_proc base (p : Proc.t) =
  let nb = Proc.num_blocks p in
  let instr_off = Array.make nb [||] in
  let cursor = ref base in
  Array.iter
    (fun (b : Block.t) ->
      let offs =
        Array.make (List.length b.instrs + 1) 0
      in
      List.iteri
        (fun i instr ->
          offs.(i) <- !cursor - base;
          cursor := !cursor + (Instr.slots instr * instr_bytes))
        b.instrs;
      offs.(Array.length offs - 1) <- !cursor - base;
      cursor := !cursor + instr_bytes;
      (* terminator slot *)
      instr_off.(b.label) <- offs)
    p.blocks;
  ({ base; instr_off; limit = !cursor }, !cursor)

let build (prog : Program.t) =
  let procs = Hashtbl.create 16 in
  let cursor = ref code_base in
  let order = ref [] in
  Array.iter
    (fun (p : Proc.t) ->
      let pl, next = layout_proc !cursor p in
      Hashtbl.replace procs p.name pl;
      order := (pl.base, p.name) :: !order;
      (* Align procedures to 32 bytes (an I-cache line), as linkers do. *)
      cursor := (next + 31) land lnot 31)
    prog.procs;
  let globals = Hashtbl.create 16 in
  let dcursor = ref data_base in
  Array.iter
    (fun (g : Program.global) ->
      Hashtbl.replace globals g.gname !dcursor;
      dcursor := !dcursor + (g.size_words * word))
    prog.globals;
  {
    procs;
    proc_order = List.sort compare !order;
    globals;
    data_end = !dcursor;
  }

let proc_layout t name =
  match Hashtbl.find_opt t.procs name with
  | Some pl -> pl
  | None -> invalid_arg (Printf.sprintf "Layout: unknown procedure %S" name)

let proc_addr t name = (proc_layout t name).base

let instr_addr t ~proc ~label ~index =
  let pl = proc_layout t proc in
  if label < 0 || label >= Array.length pl.instr_off then
    invalid_arg "Layout.instr_addr: bad label";
  let offs = pl.instr_off.(label) in
  if index < 0 || index >= Array.length offs then
    invalid_arg "Layout.instr_addr: bad instruction index";
  pl.base + offs.(index)

let global_addr t name =
  match Hashtbl.find_opt t.globals name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Layout: unknown global %S" name)

let data_end t = t.data_end

let resolve t name =
  match Hashtbl.find_opt t.procs name with
  | Some pl -> pl.base
  | None -> (
      match Hashtbl.find_opt t.globals name with
      | Some a -> a
      | None -> raise Not_found)

let proc_of_addr t addr =
  (* proc_order is sorted by base; find the last base <= addr and check the
     address lies within that procedure. *)
  let rec search best = function
    | [] -> best
    | (base, name) :: rest ->
        if base <= addr then search (Some name) rest else best
  in
  match search None t.proc_order with
  | Some name when addr < (proc_layout t name).limit -> Some name
  | Some _ | None -> None
