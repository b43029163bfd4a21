exception Invalid of Diag.t

let fail loc fmt =
  Format.kasprintf
    (fun s -> raise (Invalid { Diag.severity = Diag.Error; loc; message = s }))
    fmt

let check_call prog ~loc ~callee ~nargs ~nfargs ~(ret : Instr.ret_dest) =
  match Program.find_proc prog callee with
  | None -> fail loc "call to undefined procedure %S" callee
  | Some p ->
      if p.iparams <> nargs || p.fparams <> nfargs then
        fail loc "call to %s passes (%d,%d) args, expected (%d,%d)" callee
          nargs nfargs p.iparams p.fparams;
      (match (ret, p.returns) with
      | Instr.Rint _, Proc.Returns_int
      | Instr.Rfloat _, Proc.Returns_float
      | Instr.Rnone, (Proc.Returns_int | Proc.Returns_float | Proc.Returns_void)
        ->
          ()
      | Instr.Rint _, (Proc.Returns_float | Proc.Returns_void)
      | Instr.Rfloat _, (Proc.Returns_int | Proc.Returns_void) ->
          fail loc "call to %s binds a result of the wrong kind" callee)

let check_symbol prog ~loc name =
  if Program.find_proc prog name = None
     && Program.find_global prog name = None then
    fail loc "reference to undefined symbol %S" name

let check_instr prog ~loc instr =
  match instr with
  | Instr.Call { callee; args; fargs; ret; _ } ->
      check_call prog ~loc ~callee ~nargs:(List.length args)
        ~nfargs:(List.length fargs) ~ret
  | Instr.Iconst_sym (_, name) -> check_symbol prog ~loc name
  | Instr.Hwread (_, k) | Instr.Hwwrite (_, k) ->
      if k <> 0 && k <> 1 then fail loc "pic index %d (must be 0/1)" k
  | Instr.Callind _ | Instr.Iconst _ | Instr.Fconst _ | Instr.Imov _
  | Instr.Fmov _ | Instr.Ibinop _ | Instr.Ibinop_imm _ | Instr.Icmp _
  | Instr.Icmp_imm _ | Instr.Fbinop _ | Instr.Fcmp _ | Instr.Itof _
  | Instr.Ftoi _ | Instr.Load _ | Instr.Store _ | Instr.Fload _
  | Instr.Fstore _ | Instr.Hwzero | Instr.Frameaddr _ | Instr.Print_int _
  | Instr.Print_float _ | Instr.Prof _ ->
      ()

let check_ret (p : Proc.t) (b : Block.t) =
  match b.term with
  | Block.Ret rv -> (
      match (rv, p.returns) with
      | Block.Ret_int _, Proc.Returns_int
      | Block.Ret_float _, Proc.Returns_float
      | Block.Ret_void, Proc.Returns_void ->
          ()
      | _ ->
          fail
            (Diag.term_loc p.name b.label)
            "returns a value of the wrong kind")
  | Block.Jmp _ | Block.Br _ -> ()

let check_flow (p : Proc.t) =
  let cfg = Cfg.of_proc p in
  let dfs = Pp_graph.Dfs.run cfg.graph ~root:cfg.entry in
  Array.iter
    (fun (b : Block.t) ->
      if not (Pp_graph.Dfs.reachable dfs b.label) then
        fail (Diag.block_loc p.name b.label) "unreachable from entry")
    p.blocks;
  (* Every vertex must reach EXIT: run a reverse DFS from EXIT by searching
     the reversed graph (walk in-edges). *)
  let g = cfg.graph in
  let n = Pp_graph.Digraph.num_vertices g in
  let reaches = Array.make n false in
  let rec mark v =
    if not reaches.(v) then begin
      reaches.(v) <- true;
      List.iter mark (Pp_graph.Digraph.preds g v)
    end
  in
  mark cfg.exit;
  Array.iter
    (fun (b : Block.t) ->
      if not reaches.(b.label) then
        fail
          (Diag.block_loc p.name b.label)
          "cannot reach a return (infinite loop?)")
    p.blocks

let run prog =
  Array.iter
    (fun (p : Proc.t) ->
      Array.iter
        (fun (b : Block.t) ->
          List.iteri
            (fun i instr ->
              check_instr prog ~loc:(Diag.instr_loc p.name b.label i) instr)
            b.instrs;
          check_ret p b)
        p.blocks;
      check_flow p)
    prog.Program.procs
