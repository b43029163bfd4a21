open Typed
module I = Pp_ir.Instr
module B = Pp_ir.Builder
module Block = Pp_ir.Block

type value = Ival of I.ireg | Fval of I.freg

let ival = function
  | Ival r -> r
  | Fval _ -> invalid_arg "Lower: expected an integer value"

let fval = function
  | Fval r -> r
  | Ival _ -> invalid_arg "Lower: expected a float value"

type loop_targets = {
  break_to : Block.label;
  continue_to : unit -> Block.label;  (* lazy: the for-step block *)
}

type ctx = {
  b : B.t;
  vars : (string, value) Hashtbl.t;  (* scalar locals/params -> register *)
  arrays : (string, int) Hashtbl.t;  (* local arrays -> frame byte offset *)
  mutable loops : loop_targets list;
}

(* --- expressions --- *)

let rec lower_expr ctx (e : texpr) : value =
  match e.edesc with
  | Tint_lit n ->
      let r = B.new_ireg ctx.b in
      B.emit ctx.b (I.Iconst (r, n));
      Ival r
  | Tfloat_lit x ->
      let f = B.new_freg ctx.b in
      B.emit ctx.b (I.Fconst (f, x));
      Fval f
  | Tvar (Slocal, name) -> Hashtbl.find ctx.vars name
  | Tvar (Sglobal, name) ->
      let base = B.new_ireg ctx.b in
      B.emit ctx.b (I.Iconst_sym (base, name));
      if e.ety = Ast.Tfloat then begin
        let f = B.new_freg ctx.b in
        B.emit ctx.b (I.Fload (f, base, 0));
        Fval f
      end
      else begin
        let r = B.new_ireg ctx.b in
        B.emit ctx.b (I.Load (r, base, 0));
        Ival r
      end
  | Tindex (st, name, dims, indices) ->
      let addr = element_addr ctx st name dims indices in
      if e.ety = Ast.Tfloat then begin
        let f = B.new_freg ctx.b in
        B.emit ctx.b (I.Fload (f, addr, 0));
        Fval f
      end
      else begin
        let r = B.new_ireg ctx.b in
        B.emit ctx.b (I.Load (r, addr, 0));
        Ival r
      end
  | Tunop (Ast.Neg, e1) when e.ety = Ast.Tfloat ->
      let src = fval (lower_expr ctx e1) in
      let zero = B.new_freg ctx.b in
      B.emit ctx.b (I.Fconst (zero, 0.0));
      let fd = B.new_freg ctx.b in
      B.emit ctx.b (I.Fbinop (I.Fsub, fd, zero, src));
      Fval fd
  | Tunop (Ast.Neg, e1) ->
      let src = ival (lower_expr ctx e1) in
      let zero = B.new_ireg ctx.b in
      B.emit ctx.b (I.Iconst (zero, 0));
      let rd = B.new_ireg ctx.b in
      B.emit ctx.b (I.Ibinop (I.Sub, rd, zero, src));
      Ival rd
  | Tunop (Ast.Not, e1) ->
      let src = ival (lower_expr ctx e1) in
      let rd = B.new_ireg ctx.b in
      B.emit ctx.b (I.Icmp_imm (I.Eq, rd, src, 0));
      Ival rd
  | Tbinop ((Ast.Land | Ast.Lor) as op, _, e1, e2) ->
      lower_short_circuit ctx op e1 e2
  | Tbinop (op, operand_ty, e1, e2) -> lower_binop ctx op operand_ty e1 e2
  | Tcall (name, args) -> lower_call ctx ~name args ~ret_ty:e.ety
  | Tcall_ind (target, args) ->
      let t = ival (lower_expr ctx target) in
      let arg_regs = List.map (fun a -> ival (lower_expr ctx a)) args in
      let rd = B.new_ireg ctx.b in
      B.emit_callind ctx.b ~target:t ~args:arg_regs ~fargs:[]
        ~ret:(I.Rint rd);
      Ival rd
  | Taddr_of name ->
      let r = B.new_ireg ctx.b in
      B.emit ctx.b (I.Iconst_sym (r, name));
      Ival r
  | Tcast (Ast.Tint, e1) ->
      let src = fval (lower_expr ctx e1) in
      let rd = B.new_ireg ctx.b in
      B.emit ctx.b (I.Ftoi (rd, src));
      Ival rd
  | Tcast (Ast.Tfloat, e1) ->
      let src = ival (lower_expr ctx e1) in
      let fd = B.new_freg ctx.b in
      B.emit ctx.b (I.Itof (fd, src));
      Fval fd
  | Tcast ((Ast.Tvoid | Ast.Tfunptr), _) -> assert false

and element_addr ctx st name dims indices =
  (* flat index: ((i * d2) + j) * 8 + base *)
  let flat =
    match (dims, indices) with
    | [ _ ], [ ix ] -> ival (lower_expr ctx ix)
    | [ _; d2 ], [ i; j ] ->
        let ri = ival (lower_expr ctx i) in
        let scaled = B.new_ireg ctx.b in
        B.emit ctx.b (I.Ibinop_imm (I.Mul, scaled, ri, d2));
        let rj = ival (lower_expr ctx j) in
        let sum = B.new_ireg ctx.b in
        B.emit ctx.b (I.Ibinop (I.Add, sum, scaled, rj));
        sum
    | _ -> assert false (* typechecker enforces arity *)
  in
  let byte_off = B.new_ireg ctx.b in
  B.emit ctx.b (I.Ibinop_imm (I.Shl, byte_off, flat, 3));
  let base = B.new_ireg ctx.b in
  (match st with
  | Sglobal -> B.emit ctx.b (I.Iconst_sym (base, name))
  | Slocal ->
      let off = Hashtbl.find ctx.arrays name in
      B.emit ctx.b (I.Frameaddr (base, off)));
  let addr = B.new_ireg ctx.b in
  B.emit ctx.b (I.Ibinop (I.Add, addr, base, byte_off));
  addr

and lower_binop ctx op operand_ty e1 e2 =
  match operand_ty with
  | Ast.Tfloat -> (
      let a = fval (lower_expr ctx e1) in
      let b = fval (lower_expr ctx e2) in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
          let fop =
            match op with
            | Ast.Add -> I.Fadd
            | Ast.Sub -> I.Fsub
            | Ast.Mul -> I.Fmul
            | _ -> I.Fdiv
          in
          let fd = B.new_freg ctx.b in
          B.emit ctx.b (I.Fbinop (fop, fd, a, b));
          Fval fd
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          let rd = B.new_ireg ctx.b in
          B.emit ctx.b (I.Fcmp (lower_cmp op, rd, a, b));
          Ival rd
      | Ast.Rem | Ast.Land | Ast.Lor -> assert false)
  | Ast.Tint | Ast.Tfunptr -> (
      let a = ival (lower_expr ctx e1) in
      let b = ival (lower_expr ctx e2) in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Rem ->
          let iop =
            match op with
            | Ast.Add -> I.Add
            | Ast.Sub -> I.Sub
            | Ast.Mul -> I.Mul
            | Ast.Div -> I.Div
            | _ -> I.Rem
          in
          let rd = B.new_ireg ctx.b in
          B.emit ctx.b (I.Ibinop (iop, rd, a, b));
          Ival rd
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          let rd = B.new_ireg ctx.b in
          B.emit ctx.b (I.Icmp (lower_cmp op, rd, a, b));
          Ival rd
      | Ast.Land | Ast.Lor -> assert false)
  | Ast.Tvoid -> assert false

and lower_cmp = function
  | Ast.Eq -> I.Eq
  | Ast.Ne -> I.Ne
  | Ast.Lt -> I.Lt
  | Ast.Le -> I.Le
  | Ast.Gt -> I.Gt
  | Ast.Ge -> I.Ge
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Rem | Ast.Land | Ast.Lor ->
      assert false

and lower_short_circuit ctx op e1 e2 =
  let rd = B.new_ireg ctx.b in
  let a = ival (lower_expr ctx e1) in
  let eval2 = B.new_block ctx.b in
  let join = B.new_block ctx.b in
  (match op with
  | Ast.Land ->
      B.emit ctx.b (I.Iconst (rd, 0));
      B.terminate ctx.b (Block.Br (a, eval2, join))
  | Ast.Lor ->
      B.emit ctx.b (I.Iconst (rd, 1));
      B.terminate ctx.b (Block.Br (a, join, eval2))
  | _ -> assert false);
  B.switch_to ctx.b eval2;
  let b = ival (lower_expr ctx e2) in
  B.emit ctx.b (I.Icmp_imm (I.Ne, rd, b, 0));
  B.terminate ctx.b (Block.Jmp join);
  B.switch_to ctx.b join;
  Ival rd

and lower_call ctx ~name args ~ret_ty =
  (* Split evaluated arguments by register class, preserving relative order
     within each class (the calling convention). *)
  let vals = List.map (lower_expr ctx) args in
  let iargs =
    List.filter_map (function Ival r -> Some r | Fval _ -> None) vals
  in
  let fargs =
    List.filter_map (function Fval f -> Some f | Ival _ -> None) vals
  in
  match ret_ty with
  | Ast.Tfloat ->
      let fd = B.new_freg ctx.b in
      B.emit_call ctx.b ~callee:name ~args:iargs ~fargs ~ret:(I.Rfloat fd);
      Fval fd
  | Ast.Tint | Ast.Tfunptr ->
      let rd = B.new_ireg ctx.b in
      B.emit_call ctx.b ~callee:name ~args:iargs ~fargs ~ret:(I.Rint rd);
      Ival rd
  | Ast.Tvoid ->
      B.emit_call ctx.b ~callee:name ~args:iargs ~fargs ~ret:I.Rnone;
      (* A void value; never consumed (typechecker rejects it). *)
      Ival (-1)

(* --- statements ---
   [lower_stmts] returns whether control can fall off the end. *)

let rec lower_stmts ctx stmts =
  match stmts with
  | [] -> true
  | s :: rest ->
      if lower_stmt ctx s then lower_stmts ctx rest
      else
        (* Unreachable code after return/break/continue: drop it. *)
        false

and lower_stmt ctx (s : tstmt) : bool =
  match s with
  | TSdecl (ty, name, [], init) ->
      let v =
        match ty with
        | Ast.Tfloat ->
            let f = B.new_freg ctx.b in
            (match init with
            | Some e -> B.emit ctx.b (I.Fmov (f, fval (lower_expr ctx e)))
            | None -> B.emit ctx.b (I.Fconst (f, 0.0)));
            Fval f
        | Ast.Tint | Ast.Tfunptr ->
            let r = B.new_ireg ctx.b in
            (match init with
            | Some e -> B.emit ctx.b (I.Imov (r, ival (lower_expr ctx e)))
            | None -> B.emit ctx.b (I.Iconst (r, 0)));
            Ival r
        | Ast.Tvoid -> assert false
      in
      Hashtbl.replace ctx.vars name v;
      true
  | TSdecl (_, name, [ n ], _) ->
      let off = B.alloc_frame ctx.b ~words:n in
      Hashtbl.replace ctx.arrays name off;
      true
  | TSdecl (_, _, _, _) -> assert false
  | TSassign (TLvar (Slocal, _, name), e) ->
      (match (Hashtbl.find ctx.vars name, lower_expr ctx e) with
      | Ival dst, Ival src -> B.emit ctx.b (I.Imov (dst, src))
      | Fval dst, Fval src -> B.emit ctx.b (I.Fmov (dst, src))
      | Ival _, Fval _ | Fval _, Ival _ -> assert false);
      true
  | TSassign (TLvar (Sglobal, ty, name), e) ->
      let v = lower_expr ctx e in
      let base = B.new_ireg ctx.b in
      B.emit ctx.b (I.Iconst_sym (base, name));
      (match ty with
      | Ast.Tfloat -> B.emit ctx.b (I.Fstore (fval v, base, 0))
      | Ast.Tint | Ast.Tfunptr -> B.emit ctx.b (I.Store (ival v, base, 0))
      | Ast.Tvoid -> assert false);
      true
  | TSassign (TLindex (st, ty, name, dims, indices), e) ->
      let v = lower_expr ctx e in
      let addr = element_addr ctx st name dims indices in
      (match ty with
      | Ast.Tfloat -> B.emit ctx.b (I.Fstore (fval v, addr, 0))
      | Ast.Tint | Ast.Tfunptr -> B.emit ctx.b (I.Store (ival v, addr, 0))
      | Ast.Tvoid -> assert false);
      true
  | TSif (cond, then_b, else_b) -> lower_if ctx cond then_b else_b
  | TSwhile (cond, body) ->
      let head = B.new_block ctx.b in
      B.terminate ctx.b (Block.Jmp head);
      B.switch_to ctx.b head;
      let c = ival (lower_expr ctx cond) in
      let body_l = B.new_block ctx.b in
      let exit_l = B.new_block ctx.b in
      B.terminate ctx.b (Block.Br (c, body_l, exit_l));
      ctx.loops <-
        { break_to = exit_l; continue_to = (fun () -> head) } :: ctx.loops;
      B.switch_to ctx.b body_l;
      let falls = lower_stmts ctx body in
      if falls then B.terminate ctx.b (Block.Jmp head);
      ctx.loops <- List.tl ctx.loops;
      B.switch_to ctx.b exit_l;
      true
  | TSfor (init, cond, step, body) ->
      (match init with
      | Some i -> ignore (lower_stmt ctx i)
      | None -> ());
      let head = B.new_block ctx.b in
      B.terminate ctx.b (Block.Jmp head);
      B.switch_to ctx.b head;
      let c =
        match cond with
        | Some e -> ival (lower_expr ctx e)
        | None ->
            let r = B.new_ireg ctx.b in
            B.emit ctx.b (I.Iconst (r, 1));
            r
      in
      let body_l = B.new_block ctx.b in
      let exit_l = B.new_block ctx.b in
      B.terminate ctx.b (Block.Br (c, body_l, exit_l));
      (* The continue target is the step block, created on demand. *)
      let step_l = ref None in
      let continue_to () =
        match !step_l with
        | Some l -> l
        | None ->
            let l = B.new_block ctx.b in
            step_l := Some l;
            l
      in
      let continue_to =
        match step with Some _ -> continue_to | None -> fun () -> head
      in
      ctx.loops <- { break_to = exit_l; continue_to } :: ctx.loops;
      B.switch_to ctx.b body_l;
      let falls = lower_stmts ctx body in
      if falls then B.terminate ctx.b (Block.Jmp (continue_to ()));
      ctx.loops <- List.tl ctx.loops;
      (match (!step_l, step) with
      | Some l, Some st ->
          B.switch_to ctx.b l;
          ignore (lower_stmt ctx st);
          B.terminate ctx.b (Block.Jmp head)
      | None, _ | _, None -> ());
      B.switch_to ctx.b exit_l;
      true
  | TSbreak ->
      (match ctx.loops with
      | { break_to; _ } :: _ -> B.terminate ctx.b (Block.Jmp break_to)
      | [] -> assert false);
      false
  | TScontinue ->
      (match ctx.loops with
      | { continue_to; _ } :: _ ->
          B.terminate ctx.b (Block.Jmp (continue_to ()))
      | [] -> assert false);
      false
  | TSreturn None ->
      B.terminate ctx.b (Block.Ret Block.Ret_void);
      false
  | TSreturn (Some e) ->
      (match lower_expr ctx e with
      | Ival r -> B.terminate ctx.b (Block.Ret (Block.Ret_int r))
      | Fval f -> B.terminate ctx.b (Block.Ret (Block.Ret_float f)));
      false
  | TSexpr e ->
      ignore (lower_expr ctx e);
      true
  | TSprint e ->
      (match lower_expr ctx e with
      | Ival r -> B.emit ctx.b (I.Print_int r)
      | Fval f -> B.emit ctx.b (I.Print_float f));
      true

and lower_if ctx cond then_b else_b =
  let c = ival (lower_expr ctx cond) in
  if else_b = [] then begin
    let then_l = B.new_block ctx.b in
    let join = B.new_block ctx.b in
    B.terminate ctx.b (Block.Br (c, then_l, join));
    B.switch_to ctx.b then_l;
    let falls = lower_stmts ctx then_b in
    if falls then B.terminate ctx.b (Block.Jmp join);
    B.switch_to ctx.b join;
    true
  end
  else begin
    let then_l = B.new_block ctx.b in
    let else_l = B.new_block ctx.b in
    B.terminate ctx.b (Block.Br (c, then_l, else_l));
    B.switch_to ctx.b then_l;
    let falls_then = lower_stmts ctx then_b in
    let join = ref None in
    let get_join () =
      match !join with
      | Some l -> l
      | None ->
          let l = B.new_block ctx.b in
          join := Some l;
          l
    in
    if falls_then then B.terminate ctx.b (Block.Jmp (get_join ()));
    B.switch_to ctx.b else_l;
    let falls_else = lower_stmts ctx else_b in
    if falls_else then B.terminate ctx.b (Block.Jmp (get_join ()));
    match !join with
    | Some l ->
        B.switch_to ctx.b l;
        true
    | None -> false
  end

(* --- functions and globals --- *)

let lower_func (f : tfunc) =
  let iparams =
    List.length
      (List.filter
         (fun (ty, _) -> ty = Ast.Tint || ty = Ast.Tfunptr)
         f.tparams)
  in
  let fparams =
    List.length (List.filter (fun (ty, _) -> ty = Ast.Tfloat) f.tparams)
  in
  let returns =
    match f.tret with
    | Ast.Tint | Ast.Tfunptr -> Pp_ir.Proc.Returns_int
    | Ast.Tfloat -> Pp_ir.Proc.Returns_float
    | Ast.Tvoid -> Pp_ir.Proc.Returns_void
  in
  let b = B.create ~name:f.tfname ~iparams ~fparams ~returns in
  let ctx =
    { b; vars = Hashtbl.create 16; arrays = Hashtbl.create 4; loops = [] }
  in
  (* Bind parameters to their arrival registers, per class. *)
  let next_i = ref 0 and next_f = ref 0 in
  List.iter
    (fun (ty, name) ->
      match ty with
      | Ast.Tfloat ->
          Hashtbl.replace ctx.vars name (Fval !next_f);
          incr next_f
      | Ast.Tint | Ast.Tfunptr ->
          Hashtbl.replace ctx.vars name (Ival !next_i);
          incr next_i
      | Ast.Tvoid -> assert false)
    f.tparams;
  ignore (B.new_block b);
  let falls = lower_stmts ctx f.tbody in
  if falls then begin
    match f.tret with
    | Ast.Tvoid -> B.terminate b (Block.Ret Block.Ret_void)
    | Ast.Tint | Ast.Tfunptr ->
        let r = B.new_ireg b in
        B.emit b (I.Iconst (r, 0));
        B.terminate b (Block.Ret (Block.Ret_int r))
    | Ast.Tfloat ->
        let f0 = B.new_freg b in
        B.emit b (I.Fconst (f0, 0.0));
        B.terminate b (Block.Ret (Block.Ret_float f0))
  end;
  B.finish b

let eval_literal (e : Ast.expr) =
  match e.Ast.edesc with
  | Ast.Int_lit n -> `Int n
  | Ast.Float_lit x -> `Float x
  | Ast.Unop (Ast.Neg, { Ast.edesc = Ast.Int_lit n; _ }) -> `Int (-n)
  | Ast.Unop (Ast.Neg, { Ast.edesc = Ast.Float_lit x; _ }) -> `Float (-.x)
  | _ -> assert false (* typechecker restricted initialisers to literals *)

let lower_globals globals =
  List.map
    (fun (g : Ast.global_decl) ->
      let size_words = List.fold_left ( * ) 1 g.gdims in
      let init =
        Option.map
          (fun gi ->
            let literals =
              match gi with
              | Ast.Gscalar e -> [ e ]
              | Ast.Glist es -> es
            in
            match g.gty with
            | Ast.Tfloat ->
                Pp_ir.Program.Init_floats
                  (Array.of_list
                     (List.map
                        (fun e ->
                          match eval_literal e with
                          | `Float x -> x
                          | `Int _ -> assert false)
                        literals))
            | Ast.Tint ->
                Pp_ir.Program.Init_ints
                  (Array.of_list
                     (List.map
                        (fun e ->
                          match eval_literal e with
                          | `Int n -> n
                          | `Float _ -> assert false)
                        literals))
            | Ast.Tfunptr | Ast.Tvoid -> assert false)
          g.ginit
      in
      { Pp_ir.Program.gname = g.gname; size_words; init })
    globals
