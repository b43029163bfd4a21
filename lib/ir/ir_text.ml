exception Parse_error of int * string

let fail line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

(* --- emission --- *)

let ibinop_name (op : Instr.ibinop) =
  Format.asprintf "%a" Instr.pp_ibinop op

let cmp_name (c : Instr.cmp) = Format.asprintf "%a" Instr.pp_cmp c
let fbinop_name (op : Instr.fbinop) = Format.asprintf "%a" Instr.pp_fbinop op

let returns_name = function
  | Proc.Returns_int -> "int"
  | Proc.Returns_float -> "float"
  | Proc.Returns_void -> "void"

let emit_ret_dest ppf = function
  | Instr.Rint r -> Format.fprintf ppf "r%d" r
  | Instr.Rfloat f -> Format.fprintf ppf "f%d" f
  | Instr.Rnone -> Format.pp_print_string ppf "none"

let emit_reg_list prefix ppf regs =
  List.iter (fun r -> Format.fprintf ppf " %s%d" prefix r) regs

let emit_call ppf ~kw ~target ~args ~fargs ~ret ~site =
  Format.fprintf ppf "%s %d %s ret=%a iargs%a fargs%a" kw site target
    emit_ret_dest ret (emit_reg_list "r") args (emit_reg_list "f") fargs

let emit_prof ppf (op : Instr.prof_op) =
  match op with
  | Instr.Cct_enter { proc_addr; nsites } ->
      Format.fprintf ppf "prof cct_enter %d %d" proc_addr nsites
  | Instr.Cct_exit -> Format.pp_print_string ppf "prof cct_exit"
  | Instr.Cct_call { site; indirect } ->
      Format.fprintf ppf "prof cct_call %d %d" site
        (if indirect then 1 else 0)
  | Instr.Cct_metric_enter -> Format.pp_print_string ppf "prof cct_menter"
  | Instr.Cct_metric_exit -> Format.pp_print_string ppf "prof cct_mexit"
  | Instr.Cct_metric_backedge ->
      Format.pp_print_string ppf "prof cct_mback"
  | Instr.Path_commit_hash { table; path_reg } ->
      Format.fprintf ppf "prof pchash %d r%d" table path_reg
  | Instr.Path_commit_hash_hw { table; path_reg } ->
      Format.fprintf ppf "prof pchashhw %d r%d" table path_reg
  | Instr.Path_commit_cct { table; path_reg } ->
      Format.fprintf ppf "prof pccct %d r%d" table path_reg

let emit_instr ppf (i : Instr.t) =
  match i with
  | Instr.Iconst (rd, n) -> Format.fprintf ppf "iconst r%d %d" rd n
  | Instr.Iconst_sym (rd, s) -> Format.fprintf ppf "sym r%d %s" rd s
  | Instr.Fconst (fd, x) -> Format.fprintf ppf "fconst f%d %h" fd x
  | Instr.Imov (rd, rs) -> Format.fprintf ppf "imov r%d r%d" rd rs
  | Instr.Fmov (fd, fs) -> Format.fprintf ppf "fmov f%d f%d" fd fs
  | Instr.Ibinop (op, rd, a, b) ->
      Format.fprintf ppf "ibin %s r%d r%d r%d" (ibinop_name op) rd a b
  | Instr.Ibinop_imm (op, rd, a, n) ->
      Format.fprintf ppf "ibini %s r%d r%d %d" (ibinop_name op) rd a n
  | Instr.Icmp (c, rd, a, b) ->
      Format.fprintf ppf "icmp %s r%d r%d r%d" (cmp_name c) rd a b
  | Instr.Icmp_imm (c, rd, a, n) ->
      Format.fprintf ppf "icmpi %s r%d r%d %d" (cmp_name c) rd a n
  | Instr.Fbinop (op, fd, a, b) ->
      Format.fprintf ppf "fbin %s f%d f%d f%d" (fbinop_name op) fd a b
  | Instr.Fcmp (c, rd, a, b) ->
      Format.fprintf ppf "fcmp %s r%d f%d f%d" (cmp_name c) rd a b
  | Instr.Itof (fd, rs) -> Format.fprintf ppf "itof f%d r%d" fd rs
  | Instr.Ftoi (rd, fs) -> Format.fprintf ppf "ftoi r%d f%d" rd fs
  | Instr.Load (rd, rb, off) ->
      Format.fprintf ppf "load r%d r%d %d" rd rb off
  | Instr.Store (rs, rb, off) ->
      Format.fprintf ppf "store r%d r%d %d" rs rb off
  | Instr.Fload (fd, rb, off) ->
      Format.fprintf ppf "fload f%d r%d %d" fd rb off
  | Instr.Fstore (fs, rb, off) ->
      Format.fprintf ppf "fstore f%d r%d %d" fs rb off
  | Instr.Call { callee; args; fargs; ret; site } ->
      emit_call ppf ~kw:"call" ~target:callee ~args ~fargs ~ret ~site
  | Instr.Callind { target; args; fargs; ret; site } ->
      emit_call ppf ~kw:"callind"
        ~target:(Printf.sprintf "r%d" target)
        ~args ~fargs ~ret ~site
  | Instr.Hwread (rd, k) -> Format.fprintf ppf "hwread r%d %d" rd k
  | Instr.Hwzero -> Format.pp_print_string ppf "hwzero"
  | Instr.Hwwrite (rs, k) -> Format.fprintf ppf "hwwrite r%d %d" rs k
  | Instr.Frameaddr (rd, off) ->
      Format.fprintf ppf "frameaddr r%d %d" rd off
  | Instr.Print_int r -> Format.fprintf ppf "printi r%d" r
  | Instr.Print_float f -> Format.fprintf ppf "printf f%d" f
  | Instr.Prof op -> emit_prof ppf op

let emit_term ppf (t : Block.terminator) =
  match t with
  | Block.Jmp l -> Format.fprintf ppf "jmp L%d" l
  | Block.Br (r, a, b) -> Format.fprintf ppf "br r%d L%d L%d" r a b
  | Block.Ret Block.Ret_void -> Format.pp_print_string ppf "ret"
  | Block.Ret (Block.Ret_int r) -> Format.fprintf ppf "ret r%d" r
  | Block.Ret (Block.Ret_float f) -> Format.fprintf ppf "retf f%d" f

let emit ppf (p : Program.t) =
  Format.fprintf ppf "program main=%s@." p.Program.main;
  Array.iter
    (fun (g : Program.global) ->
      match g.init with
      | None ->
          Format.fprintf ppf "global %s %d@." g.gname g.size_words
      | Some (Program.Init_ints a) ->
          Format.fprintf ppf "global %s %d = ints" g.gname g.size_words;
          Array.iter (fun v -> Format.fprintf ppf " %d" v) a;
          Format.fprintf ppf "@."
      | Some (Program.Init_floats a) ->
          Format.fprintf ppf "global %s %d = floats" g.gname g.size_words;
          Array.iter (fun v -> Format.fprintf ppf " %h" v) a;
          Format.fprintf ppf "@.")
    p.Program.globals;
  Array.iter
    (fun (proc : Proc.t) ->
      Format.fprintf ppf
        "proc %s iparams=%d fparams=%d returns=%s frame=%d entry=%d@."
        proc.Proc.name proc.Proc.iparams proc.Proc.fparams
        (returns_name proc.Proc.returns)
        proc.Proc.frame_words proc.Proc.entry;
      Array.iter
        (fun (b : Block.t) ->
          Format.fprintf ppf "L%d:@." b.Block.label;
          List.iter
            (fun i -> Format.fprintf ppf "  %a@." emit_instr i)
            b.Block.instrs;
          Format.fprintf ppf "  %a@." emit_term b.Block.term)
        proc.Proc.blocks)
    p.Program.procs

let to_string p = Format.asprintf "%a" emit p

(* --- parsing --- *)

type pstate = {
  mutable line : int;
  mutable globals : Program.global list;
  mutable procs : Proc.t list;
  mutable main : string option;
  (* current procedure under construction *)
  mutable cur : cur option;
}

and cur = {
  cname : string;
  ciparams : int;
  cfparams : int;
  creturns : Proc.return_kind;
  cframe : int;
  centry : int;
  mutable blocks : Block.t list;  (* finished, reversed *)
  mutable cur_label : int option;
  mutable cur_instrs : Instr.t list;  (* reversed *)
}

let int_of line s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail line "expected an integer, found %S" s

let reg_of line prefix s =
  let n = String.length s in
  let r =
    if n >= 2 && s.[0] = prefix.[0] then int_of line (String.sub s 1 (n - 1))
    else -1
  in
  if r < 0 || r >= Sys.max_array_length then
    fail line "expected %s-register, found %S" prefix s;
  r

let ireg line s = reg_of line "r" s
let freg line s = reg_of line "f" s

let label_of line s =
  let n = String.length s in
  let s = if n > 0 && s.[n - 1] = ':' then String.sub s 0 (n - 1) else s in
  if String.length s >= 2 && s.[0] = 'L' then
    int_of line (String.sub s 1 (String.length s - 1))
  else fail line "expected a label, found %S" s

let kv line key s =
  let prefix = key ^ "=" in
  let pn = String.length prefix in
  if String.length s > pn && String.sub s 0 pn = prefix then
    String.sub s pn (String.length s - pn)
  else fail line "expected %s=..., found %S" key s

let ibinop_of line s =
  match
    List.find_opt
      (fun op -> ibinop_name op = s)
      [ Instr.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
  with
  | Some op -> op
  | None -> fail line "unknown integer op %S" s

let cmp_of line s =
  match
    List.find_opt
      (fun c -> cmp_name c = s)
      [ Instr.Eq; Ne; Lt; Le; Gt; Ge ]
  with
  | Some c -> c
  | None -> fail line "unknown comparison %S" s

let fbinop_of line s =
  match
    List.find_opt
      (fun op -> fbinop_name op = s)
      [ Instr.Fadd; Fsub; Fmul; Fdiv ]
  with
  | Some op -> op
  | None -> fail line "unknown float op %S" s

let float_of line s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> fail line "expected a float, found %S" s

let ret_dest_of line s =
  if s = "none" then Instr.Rnone
  else if String.length s >= 2 && s.[0] = 'r' then
    Instr.Rint (ireg line s)
  else if String.length s >= 2 && s.[0] = 'f' then
    Instr.Rfloat (freg line s)
  else fail line "bad return destination %S" s

(* call <site> <target> ret=<dest> iargs r.. fargs f.. *)
let parse_call line ~indirect words =
  match words with
  | site :: target :: ret :: rest ->
      let site = int_of line site in
      let ret = ret_dest_of line (kv line "ret" ret) in
      let rec split_args acc = function
        | "iargs" :: rest -> split_args acc rest
        | "fargs" :: rest -> (List.rev acc, rest)
        | w :: rest -> split_args (w :: acc) rest
        | [] -> (List.rev acc, [])
      in
      (match rest with
      | "iargs" :: rest ->
          let iargs_s, fargs_s = split_args [] rest in
          let args = List.map (ireg line) iargs_s in
          let fargs = List.map (freg line) fargs_s in
          if indirect then
            Instr.Callind
              { target = ireg line target; args; fargs; ret; site }
          else Instr.Call { callee = target; args; fargs; ret; site }
      | _ -> fail line "expected iargs in call")
  | _ -> fail line "malformed call"

let parse_prof line words =
  match words with
  | [ "cct_enter"; a; n ] ->
      Instr.Cct_enter { proc_addr = int_of line a; nsites = int_of line n }
  | [ "cct_exit" ] -> Instr.Cct_exit
  | [ "cct_call"; s; i ] ->
      Instr.Cct_call { site = int_of line s; indirect = i = "1" }
  | [ "cct_menter" ] -> Instr.Cct_metric_enter
  | [ "cct_mexit" ] -> Instr.Cct_metric_exit
  | [ "cct_mback" ] -> Instr.Cct_metric_backedge
  | [ "pchash"; t; r ] ->
      Instr.Path_commit_hash { table = int_of line t; path_reg = ireg line r }
  | [ "pchashhw"; t; r ] ->
      Instr.Path_commit_hash_hw
        { table = int_of line t; path_reg = ireg line r }
  | [ "pccct"; t; r ] ->
      Instr.Path_commit_cct { table = int_of line t; path_reg = ireg line r }
  | _ -> fail line "malformed prof op"

let parse_instr line words : [ `Instr of Instr.t | `Term of Block.terminator ]
    =
  match words with
  | [ "iconst"; r; n ] -> `Instr (Instr.Iconst (ireg line r, int_of line n))
  | [ "sym"; r; s ] -> `Instr (Instr.Iconst_sym (ireg line r, s))
  | [ "fconst"; f; x ] -> `Instr (Instr.Fconst (freg line f, float_of line x))
  | [ "imov"; a; b ] -> `Instr (Instr.Imov (ireg line a, ireg line b))
  | [ "fmov"; a; b ] -> `Instr (Instr.Fmov (freg line a, freg line b))
  | [ "ibin"; op; d; a; b ] ->
      `Instr
        (Instr.Ibinop (ibinop_of line op, ireg line d, ireg line a,
                       ireg line b))
  | [ "ibini"; op; d; a; n ] ->
      `Instr
        (Instr.Ibinop_imm (ibinop_of line op, ireg line d, ireg line a,
                           int_of line n))
  | [ "icmp"; c; d; a; b ] ->
      `Instr
        (Instr.Icmp (cmp_of line c, ireg line d, ireg line a, ireg line b))
  | [ "icmpi"; c; d; a; n ] ->
      `Instr
        (Instr.Icmp_imm (cmp_of line c, ireg line d, ireg line a,
                         int_of line n))
  | [ "fbin"; op; d; a; b ] ->
      `Instr
        (Instr.Fbinop (fbinop_of line op, freg line d, freg line a,
                       freg line b))
  | [ "fcmp"; c; d; a; b ] ->
      `Instr
        (Instr.Fcmp (cmp_of line c, ireg line d, freg line a, freg line b))
  | [ "itof"; f; r ] -> `Instr (Instr.Itof (freg line f, ireg line r))
  | [ "ftoi"; r; f ] -> `Instr (Instr.Ftoi (ireg line r, freg line f))
  | [ "load"; d; b; o ] ->
      `Instr (Instr.Load (ireg line d, ireg line b, int_of line o))
  | [ "store"; s; b; o ] ->
      `Instr (Instr.Store (ireg line s, ireg line b, int_of line o))
  | [ "fload"; d; b; o ] ->
      `Instr (Instr.Fload (freg line d, ireg line b, int_of line o))
  | [ "fstore"; s; b; o ] ->
      `Instr (Instr.Fstore (freg line s, ireg line b, int_of line o))
  | "call" :: rest -> `Instr (parse_call line ~indirect:false rest)
  | "callind" :: rest -> `Instr (parse_call line ~indirect:true rest)
  | [ "hwread"; r; k ] ->
      `Instr (Instr.Hwread (ireg line r, int_of line k))
  | [ "hwzero" ] -> `Instr Instr.Hwzero
  | [ "hwwrite"; r; k ] ->
      `Instr (Instr.Hwwrite (ireg line r, int_of line k))
  | [ "frameaddr"; r; o ] ->
      `Instr (Instr.Frameaddr (ireg line r, int_of line o))
  | [ "printi"; r ] -> `Instr (Instr.Print_int (ireg line r))
  | [ "printf"; f ] -> `Instr (Instr.Print_float (freg line f))
  | "prof" :: rest -> `Instr (Instr.Prof (parse_prof line rest))
  | [ "jmp"; l ] -> `Term (Block.Jmp (label_of line l))
  | [ "br"; r; a; b ] ->
      `Term (Block.Br (ireg line r, label_of line a, label_of line b))
  | [ "ret" ] -> `Term (Block.Ret Block.Ret_void)
  | [ "ret"; r ] -> `Term (Block.Ret (Block.Ret_int (ireg line r)))
  | [ "retf"; f ] -> `Term (Block.Ret (Block.Ret_float (freg line f)))
  | w :: _ -> fail line "unknown instruction %S" w
  | [] -> assert false

let finish_block st cur =
  match (cur.cur_label, cur.cur_instrs) with
  | None, [] -> ()
  | None, _ -> fail st.line "instructions outside a block"
  | Some _, _ -> fail st.line "block not terminated"

let finish_proc st =
  match st.cur with
  | None -> ()
  | Some cur ->
      finish_block st cur;
      let blocks = Array.of_list (List.rev cur.blocks) in
      let proc =
        Proc.make ~frame_words:cur.cframe ~name:cur.cname
          ~iparams:cur.ciparams ~fparams:cur.cfparams ~returns:cur.creturns
          ~blocks ~entry:cur.centry
      in
      st.procs <- proc :: st.procs;
      st.cur <- None

let parse text =
  let st = { line = 0; globals = []; procs = []; main = None; cur = None } in
  let returns_of line s =
    match s with
    | "int" -> Proc.Returns_int
    | "float" -> Proc.Returns_float
    | "void" -> Proc.Returns_void
    | _ -> fail line "bad returns kind %S" s
  in
  List.iter
    (fun raw ->
      st.line <- st.line + 1;
      let line = st.line in
      let text = String.trim raw in
      if text <> "" && text.[0] <> '#' then begin
        let words =
          String.split_on_char ' ' text
          |> List.filter (fun w -> w <> "")
        in
        match words with
        | "program" :: rest -> (
            match rest with
            | [ m ] -> st.main <- Some (kv line "main" m)
            | _ -> fail line "malformed program line")
        | "global" :: name :: words :: rest ->
            let size_words = int_of line words in
            let init =
              match rest with
              | [] -> None
              | "=" :: "ints" :: vals ->
                  Some
                    (Program.Init_ints
                       (Array.of_list (List.map (int_of line) vals)))
              | "=" :: "floats" :: vals ->
                  Some
                    (Program.Init_floats
                       (Array.of_list (List.map (float_of line) vals)))
              | _ -> fail line "malformed global initialiser"
            in
            st.globals <-
              { Program.gname = name; size_words; init } :: st.globals
        | [ "proc"; name; ip; fp; rt; fr; en ] ->
            finish_proc st;
            st.cur <-
              Some
                {
                  cname = name;
                  ciparams = int_of line (kv line "iparams" ip);
                  cfparams = int_of line (kv line "fparams" fp);
                  creturns = returns_of line (kv line "returns" rt);
                  cframe = int_of line (kv line "frame" fr);
                  centry = int_of line (kv line "entry" en);
                  blocks = [];
                  cur_label = None;
                  cur_instrs = [];
                }
        | [ label ] when String.length label > 1
                         && label.[0] = 'L'
                         && label.[String.length label - 1] = ':' -> (
            match st.cur with
            | None -> fail line "label outside a procedure"
            | Some cur -> (
                match cur.cur_label with
                | Some _ -> fail line "previous block not terminated"
                | None -> cur.cur_label <- Some (label_of line label)))
        | _ -> (
            match st.cur with
            | None -> fail line "instruction outside a procedure"
            | Some cur -> (
                match cur.cur_label with
                | None -> fail line "instruction outside a block"
                | Some l -> (
                    match parse_instr line words with
                    | `Instr i -> cur.cur_instrs <- i :: cur.cur_instrs
                    | `Term t ->
                        cur.blocks <-
                          {
                            Block.label = l;
                            instrs = List.rev cur.cur_instrs;
                            term = t;
                          }
                          :: cur.blocks;
                        cur.cur_label <- None;
                        cur.cur_instrs <- [])))
      end)
    (String.split_on_char '\n' text);
  finish_proc st;
  match st.main with
  | None -> fail 0 "no program line"
  | Some main ->
      (try
         Program.make ~procs:(List.rev st.procs)
           ~globals:(List.rev st.globals) ~main
       with Invalid_argument msg -> fail st.line "%s" msg)
