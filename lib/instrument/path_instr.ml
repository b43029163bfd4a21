module I = Pp_ir.Instr
module Ball_larus = Pp_core.Ball_larus

type target =
  | Array_target of { global : string; cells : int }
  | Hash_target of { id : int }
  | Cct_target of { id : int }

(* The path register: a real register, or a frame slot when the procedure
   has no free register (EEL's spill case).  Spilled accesses go through
   memory with fresh temporaries, which is exactly the extra perturbation
   the paper describes. *)
type preg = Direct of I.ireg | Spilled of int  (* frame byte offset *)

type path_loc = Path_reg of I.ireg | Path_slot of int

let set_code ed preg value =
  match preg with
  | Direct r -> [ I.Iconst (r, value) ]
  | Spilled off ->
      let a = Editor.new_ireg ed in
      let v = Editor.new_ireg ed in
      [ I.Frameaddr (a, off); I.Iconst (v, value); I.Store (v, a, 0) ]

let add_code ed preg value =
  if value = 0 then []
  else
    match preg with
    | Direct r -> [ I.Ibinop_imm (I.Add, r, r, value) ]
    | Spilled off ->
        let a = Editor.new_ireg ed in
        let v = Editor.new_ireg ed in
        [
          I.Frameaddr (a, off);
          I.Load (v, a, 0);
          I.Ibinop_imm (I.Add, v, v, value);
          I.Store (v, a, 0);
        ]

(* Materialise r + extra into a fresh register. *)
let read_code ed preg extra =
  match preg with
  | Direct r when extra = 0 -> (r, [])
  | Direct r ->
      let v = Editor.new_ireg ed in
      (v, [ I.Ibinop_imm (I.Add, v, r, extra) ])
  | Spilled off ->
      let a = Editor.new_ireg ed in
      let v = Editor.new_ireg ed in
      let load = [ I.Frameaddr (a, off); I.Load (v, a, 0) ] in
      if extra = 0 then (v, load)
      else (v, load @ [ I.Ibinop_imm (I.Add, v, v, extra) ])

(* The commit sequence: count[r + extra]++ plus, with hardware metrics, the
   two PIC accumulators and the re-zeroing read-after-write (§3.1), as
   category-tagged pieces in program order. *)
let commit_code ed ~target ~hw ~restart preg extra =
  let key, key_code = read_code ed preg extra in
  let commit code = [ (Editor.Table_commit, code) ] in
  let body =
    match target with
    | Array_target { global; cells } ->
        let rb = Editor.new_ireg ed in
        let ra = Editor.new_ireg ed in
        let addr_code =
          [
            I.Iconst_sym (rb, global);
            I.Ibinop_imm (I.Mul, ra, key, cells * 8);
            I.Ibinop (I.Add, ra, rb, ra);
          ]
        in
        let tf = Editor.new_ireg ed in
        let freq_code =
          [
            I.Load (tf, ra, 0);
            I.Ibinop_imm (I.Add, tf, tf, 1);
            I.Store (tf, ra, 0);
          ]
        in
        if not hw then commit (addr_code @ freq_code)
        else begin
          let t0 = Editor.new_ireg ed in
          let t1 = Editor.new_ireg ed in
          let m0 = Editor.new_ireg ed in
          let m1 = Editor.new_ireg ed in
          let tz = Editor.new_ireg ed in
          (Editor.Counter_read, [ I.Hwread (t0, 0); I.Hwread (t1, 1) ])
          :: commit
               (addr_code @ freq_code
               @ [
                   I.Load (m0, ra, 8);
                   I.Ibinop (I.Add, m0, m0, t0);
                   I.Store (m0, ra, 8);
                   I.Load (m1, ra, 16);
                   I.Ibinop (I.Add, m1, m1, t1);
                   I.Store (m1, ra, 16);
                 ])
          @
          (* Re-arm the counters for the next path; the UltraSPARC needs a
             read after the write to force completion. *)
          if restart then
            [ (Editor.Counter_read, [ I.Hwzero; I.Hwread (tz, 0) ]) ]
          else []
        end
    | Hash_target { id } ->
        if hw then
          commit
            [ I.Prof (I.Path_commit_hash_hw { table = id; path_reg = key }) ]
        else
          commit [ I.Prof (I.Path_commit_hash { table = id; path_reg = key }) ]
    | Cct_target { id } ->
        commit [ I.Prof (I.Path_commit_cct { table = id; path_reg = key }) ]
  in
  commit key_code @ body

let emit ed ~placement ~hw ~target ~spill ~caller_saves =
  let preg =
    if spill then Spilled (Editor.alloc_spill_slot ed)
    else Direct (Editor.new_ireg ed)
  in
  (* PIC save registers live across the whole body (virtual registers are
     per-frame, hence callee-saved by construction). *)
  let s0 = Editor.new_ireg ed in
  let s1 = Editor.new_ireg ed in
  (* Entry: save + zero the counters, initialise the path register. *)
  let entry_hw =
    if not hw then []
    else if caller_saves then
      (* A3: callers save/restore; the callee only zeroes. *)
      let tz = Editor.new_ireg ed in
      [ I.Hwzero; I.Hwread (tz, 0) ]
    else
      let tz = Editor.new_ireg ed in
      [
        I.Hwread (s0, 0);
        I.Hwread (s1, 1);
        I.Hwzero;
        I.Hwread (tz, 0);
      ]
  in
  Editor.at_entry ed Editor.Counter_read entry_hw;
  Editor.at_entry ed Editor.Path_register (set_code ed preg 0);
  (* Edge increments. *)
  List.iter
    (fun (e, v) ->
      Editor.on_edge ed Editor.Path_register e (add_code ed preg v))
    placement.Ball_larus.increments;
  (* Backedges: commit with the end value, then restart the path. *)
  List.iter
    (fun (op : Ball_larus.backedge_op) ->
      let e = op.Ball_larus.backedge in
      (* The reset's temporaries are allocated before the commit's. *)
      let reset = set_code ed preg op.Ball_larus.reset_to in
      let commit =
        commit_code ed ~target ~hw ~restart:true preg op.Ball_larus.end_add
      in
      List.iter (fun (cat, code) -> Editor.on_edge ed cat e code) commit;
      Editor.on_edge ed Editor.Path_register e reset)
    placement.Ball_larus.backedge_ops;
  (* Returns: final commit, then restore the caller's counters. *)
  List.iter
    (fun (cat, code) -> Editor.before_returns ed cat code)
    (commit_code ed ~target ~hw ~restart:false preg 0);
  if hw && not caller_saves then
    Editor.before_returns ed Editor.Counter_read
      [ I.Hwwrite (s0, 0); I.Hwwrite (s1, 1) ];
  (* A3: the caller-side save/restore around every call site. *)
  if hw && caller_saves then
    Editor.around_calls ed Editor.Counter_read (fun ~site:_ ~indirect:_ ->
        let c0 = Editor.new_ireg ed in
        let c1 = Editor.new_ireg ed in
        ( [ I.Hwread (c0, 0); I.Hwread (c1, 1) ],
          [ I.Hwwrite (c0, 0); I.Hwwrite (c1, 1) ] ));
  match preg with Direct r -> Path_reg r | Spilled off -> Path_slot off
