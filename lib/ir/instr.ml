type ireg = int
type freg = int
type site = int

type ibinop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type fbinop = Fadd | Fsub | Fmul | Fdiv

type ret_dest = Rint of ireg | Rfloat of freg | Rnone

type prof_op =
  | Cct_enter of { proc_addr : int; nsites : int }
  | Cct_exit
  | Cct_call of { site : site; indirect : bool }
  | Cct_metric_enter
  | Cct_metric_exit
  | Cct_metric_backedge
  | Path_commit_hash of { table : int; path_reg : ireg }
  | Path_commit_hash_hw of { table : int; path_reg : ireg }
  | Path_commit_cct of { table : int; path_reg : ireg }

type t =
  | Iconst of ireg * int
  | Iconst_sym of ireg * string
  | Fconst of freg * float
  | Imov of ireg * ireg
  | Fmov of freg * freg
  | Ibinop of ibinop * ireg * ireg * ireg
  | Ibinop_imm of ibinop * ireg * ireg * int
  | Icmp of cmp * ireg * ireg * ireg
  | Icmp_imm of cmp * ireg * ireg * int
  | Fbinop of fbinop * freg * freg * freg
  | Fcmp of cmp * ireg * freg * freg
  | Itof of freg * ireg
  | Ftoi of ireg * freg
  | Load of ireg * ireg * int
  | Store of ireg * ireg * int
  | Fload of freg * ireg * int
  | Fstore of freg * ireg * int
  | Call of {
      callee : string;
      args : ireg list;
      fargs : freg list;
      ret : ret_dest;
      site : site;
    }
  | Callind of {
      target : ireg;
      args : ireg list;
      fargs : freg list;
      ret : ret_dest;
      site : site;
    }
  | Hwread of ireg * int
  | Hwzero
  | Hwwrite of ireg * int
  | Frameaddr of ireg * int
  | Print_int of ireg
  | Print_float of freg
  | Prof of prof_op

let ret_idef = function Rint r -> [ r ] | Rfloat _ | Rnone -> []
let ret_fdef = function Rfloat r -> [ r ] | Rint _ | Rnone -> []

let idefs = function
  | Iconst (rd, _)
  | Iconst_sym (rd, _)
  | Imov (rd, _)
  | Ibinop (_, rd, _, _)
  | Ibinop_imm (_, rd, _, _)
  | Icmp (_, rd, _, _)
  | Icmp_imm (_, rd, _, _)
  | Fcmp (_, rd, _, _)
  | Ftoi (rd, _)
  | Load (rd, _, _)
  | Hwread (rd, _)
  | Frameaddr (rd, _) ->
      [ rd ]
  | Call { ret; _ } | Callind { ret; _ } -> ret_idef ret
  | Fconst _ | Fmov _ | Fbinop _ | Itof _ | Store _ | Fload _ | Fstore _
  | Hwzero | Hwwrite _ | Print_int _ | Print_float _ | Prof _ ->
      []

let iuses = function
  | Imov (_, rs) | Ibinop_imm (_, _, rs, _) | Icmp_imm (_, _, rs, _) -> [ rs ]
  | Ibinop (_, _, rs1, rs2) | Icmp (_, _, rs1, rs2) -> [ rs1; rs2 ]
  | Itof (_, rs) -> [ rs ]
  | Load (_, rb, _) | Fload (_, rb, _) -> [ rb ]
  | Store (rs, rb, _) -> [ rs; rb ]
  | Fstore (_, rb, _) -> [ rb ]
  | Call { args; _ } -> args
  | Callind { target; args; _ } -> target :: args
  | Prof (Path_commit_hash { path_reg; _ })
  | Prof (Path_commit_hash_hw { path_reg; _ })
  | Prof (Path_commit_cct { path_reg; _ }) ->
      [ path_reg ]
  | Print_int r | Hwwrite (r, _) -> [ r ]
  | Iconst _ | Iconst_sym _ | Fconst _ | Fmov _ | Fbinop _ | Fcmp _ | Ftoi _
  | Hwread _ | Hwzero | Frameaddr _ | Print_float _ | Prof _ ->
      []

let fdefs = function
  | Fconst (fd, _) | Fmov (fd, _) | Fbinop (_, fd, _, _) | Itof (fd, _)
  | Fload (fd, _, _) ->
      [ fd ]
  | Call { ret; _ } | Callind { ret; _ } -> ret_fdef ret
  | Iconst _ | Iconst_sym _ | Imov _ | Ibinop _ | Ibinop_imm _ | Icmp _
  | Icmp_imm _ | Fcmp _ | Ftoi _ | Load _ | Store _ | Fstore _ | Hwread _
  | Hwzero | Hwwrite _ | Frameaddr _ | Print_int _ | Print_float _ | Prof _ ->
      []

let fuses = function
  | Fmov (_, fs) | Ftoi (_, fs) -> [ fs ]
  | Fbinop (_, _, fs1, fs2) | Fcmp (_, _, fs1, fs2) -> [ fs1; fs2 ]
  | Fstore (fs, _, _) -> [ fs ]
  | Print_float f -> [ f ]
  | Call { fargs; _ } | Callind { fargs; _ } -> fargs
  | Iconst _ | Iconst_sym _ | Fconst _ | Imov _ | Ibinop _ | Ibinop_imm _
  | Icmp _ | Icmp_imm _ | Itof _ | Load _ | Store _ | Fload _ | Hwread _
  | Hwzero | Hwwrite _ | Frameaddr _ | Print_int _ | Prof _ ->
      []

let is_call = function Call _ | Callind _ -> true | _ -> false

let cct_enter_slots = 14
let cct_enter_base = 8
let cct_enter_per_ancestor = 3
let cct_exit_slots = 3
let cct_call_slots = 2
let metric_enter_slots = 4
let metric_exit_slots = 10
let metric_backedge_slots = 12
let commit_hash_slots = 12
let commit_hash_hw_slots = 18
let commit_cct_slots = 10

let prof_slots = function
  | Cct_enter _ -> cct_enter_slots
  | Cct_exit -> cct_exit_slots
  | Cct_call _ -> cct_call_slots
  | Cct_metric_enter -> metric_enter_slots
  | Cct_metric_exit -> metric_exit_slots
  | Cct_metric_backedge -> metric_backedge_slots
  | Path_commit_hash _ -> commit_hash_slots
  | Path_commit_hash_hw _ -> commit_hash_hw_slots
  | Path_commit_cct _ -> commit_cct_slots

let slots = function Prof op -> prof_slots op | _ -> 1

let pp_ibinop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | Div -> "div"
    | Rem -> "rem"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Shl -> "shl"
    | Shr -> "shr")

let pp_cmp ppf c =
  Format.pp_print_string ppf
    (match c with
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Le -> "le"
    | Gt -> "gt"
    | Ge -> "ge")

let pp_fbinop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Fadd -> "fadd"
    | Fsub -> "fsub"
    | Fmul -> "fmul"
    | Fdiv -> "fdiv")

let pp_ret ppf = function
  | Rint r -> Format.fprintf ppf "r%d = " r
  | Rfloat f -> Format.fprintf ppf "f%d = " f
  | Rnone -> ()

let pp_args ppf (args, fargs) =
  let pp_sep ppf () = Format.pp_print_string ppf ", " in
  let pp_ireg ppf r = Format.fprintf ppf "r%d" r in
  let pp_freg ppf r = Format.fprintf ppf "f%d" r in
  Format.pp_print_list ~pp_sep pp_ireg ppf args;
  if args <> [] && fargs <> [] then pp_sep ppf ();
  Format.pp_print_list ~pp_sep pp_freg ppf fargs

let pp_prof ppf = function
  | Cct_enter { proc_addr; nsites } ->
      Format.fprintf ppf "cct.enter proc=0x%x nsites=%d" proc_addr nsites
  | Cct_exit -> Format.pp_print_string ppf "cct.exit"
  | Cct_call { site; indirect } ->
      Format.fprintf ppf "cct.call site=%d%s" site
        (if indirect then " indirect" else "")
  | Cct_metric_enter -> Format.pp_print_string ppf "cct.metric_enter"
  | Cct_metric_exit -> Format.pp_print_string ppf "cct.metric_exit"
  | Cct_metric_backedge -> Format.pp_print_string ppf "cct.metric_backedge"
  | Path_commit_hash { table; path_reg } ->
      Format.fprintf ppf "path.commit_hash table=%d r%d" table path_reg
  | Path_commit_hash_hw { table; path_reg } ->
      Format.fprintf ppf "path.commit_hash_hw table=%d r%d" table path_reg
  | Path_commit_cct { table; path_reg } ->
      Format.fprintf ppf "path.commit_cct table=%d r%d" table path_reg

let pp ppf = function
  | Iconst (rd, n) -> Format.fprintf ppf "r%d = %d" rd n
  | Iconst_sym (rd, s) -> Format.fprintf ppf "r%d = &%s" rd s
  | Fconst (fd, x) -> Format.fprintf ppf "f%d = %g" fd x
  | Imov (rd, rs) -> Format.fprintf ppf "r%d = r%d" rd rs
  | Fmov (fd, fs) -> Format.fprintf ppf "f%d = f%d" fd fs
  | Ibinop (op, rd, rs1, rs2) ->
      Format.fprintf ppf "r%d = %a r%d, r%d" rd pp_ibinop op rs1 rs2
  | Ibinop_imm (op, rd, rs, n) ->
      Format.fprintf ppf "r%d = %a r%d, %d" rd pp_ibinop op rs n
  | Icmp (c, rd, rs1, rs2) ->
      Format.fprintf ppf "r%d = %a r%d, r%d" rd pp_cmp c rs1 rs2
  | Icmp_imm (c, rd, rs, n) ->
      Format.fprintf ppf "r%d = %a r%d, %d" rd pp_cmp c rs n
  | Fbinop (op, fd, fs1, fs2) ->
      Format.fprintf ppf "f%d = %a f%d, f%d" fd pp_fbinop op fs1 fs2
  | Fcmp (c, rd, fs1, fs2) ->
      Format.fprintf ppf "r%d = f%a f%d, f%d" rd pp_cmp c fs1 fs2
  | Itof (fd, rs) -> Format.fprintf ppf "f%d = itof r%d" fd rs
  | Ftoi (rd, fs) -> Format.fprintf ppf "r%d = ftoi f%d" rd fs
  | Load (rd, rb, off) -> Format.fprintf ppf "r%d = [r%d + %d]" rd rb off
  | Store (rs, rb, off) -> Format.fprintf ppf "[r%d + %d] = r%d" rb off rs
  | Fload (fd, rb, off) -> Format.fprintf ppf "f%d = [r%d + %d]" fd rb off
  | Fstore (fs, rb, off) -> Format.fprintf ppf "[r%d + %d] = f%d" rb off fs
  | Call { callee; args; fargs; ret; _ } ->
      Format.fprintf ppf "%acall %s(%a)" pp_ret ret callee pp_args
        (args, fargs)
  | Callind { target; args; fargs; ret; _ } ->
      Format.fprintf ppf "%acall *r%d(%a)" pp_ret ret target pp_args
        (args, fargs)
  | Hwread (rd, k) -> Format.fprintf ppf "r%d = rdpic %d" rd k
  | Hwzero -> Format.pp_print_string ppf "wrpic 0"
  | Hwwrite (rs, k) -> Format.fprintf ppf "wrpic %d, r%d" k rs
  | Frameaddr (rd, off) -> Format.fprintf ppf "r%d = fp + %d" rd off
  | Print_int r -> Format.fprintf ppf "print r%d" r
  | Print_float f -> Format.fprintf ppf "print f%d" f
  | Prof op -> pp_prof ppf op
