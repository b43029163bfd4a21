(* The closure-threaded compilation tier.

   Each validated CFG is translated once, ahead of execution, into one
   OCaml closure per basic block: operands are resolved to register-array
   slots at compile time, the per-instruction opcode dispatch disappears,
   and a block's successor transfer is a direct tail call into the next
   block's closure.  Machine-model events are batched per block — the
   semantic closures run first, recording load/store addresses into a
   per-block buffer, then one {!Pp_machine.Machine.block_step} call
   replays the block's event sequence in original order (fetch runs
   fused, clock-sensitive events individual).

   Instructions that observe or perturb mid-block machine state — calls,
   profiling pseudo-ops, PIC reads/writes — are observers.  They split a
   block into segments, maximal runs of batchable instructions, each
   batched like a whole block and flushed before the next observer runs
   on the precise tier (one closure reporting its events inline, exactly
   like the interpreter), so counters are current whenever an observer
   reads them.  A segment that traps (division by zero, memory fault,
   float conversion, unresolved symbol) replays the machine events of its
   completed prefix plus the faulting instruction's pre-trap events
   before re-raising, so counters, cycles and [Trap] messages stay
   bit-identical to {!Interp.run}.  Only a block whose register operands
   fail the compile-time range check runs wholly on the precise tier.

   The compiler executes against the interpreter's own state ([Interp.t]
   images, memory, machine, runtime, hooks), which is what makes the two
   engines differentially testable: same program, same initial state,
   byte-comparable results. *)

module I = Pp_ir.Instr
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Layout = Pp_ir.Layout
module Machine = Pp_machine.Machine
module Counters = Pp_machine.Counters

type frame = {
  iregs : int array;
  fregs : float array;
  fp : int;
  mutable trap_ix : int;
      (* index of the instruction whose semantic closure is mid-flight;
         maintained only by closures that can trap, read only when one
         does (to drive the event replay of the completed prefix) *)
}

type ret_value = Vint of int | Vfloat of float | Vvoid

type cproc = {
  image : Interp.image;
  mutable blocks : (frame -> ret_value) array;
}

type t = { st : Interp.t; cprocs : cproc array }

(* One procedure activation: allocate registers and the frame, run the
   entry block (control then threads itself through tail calls).  Mirrors
   [Interp.exec_proc] — including not restoring [sp] or the call stack
   when a trap propagates. *)
let call_proc st (cp : cproc) ~iargs ~fargs =
  let p = cp.image.Interp.proc in
  let iregs = Array.make (max p.Proc.niregs 1) 0 in
  let fregs = Array.make (max p.Proc.nfregs 1) 0.0 in
  List.iteri (fun i v -> iregs.(i) <- v) iargs;
  List.iteri (fun i v -> fregs.(i) <- v) fargs;
  let saved_sp = Interp.stack_pointer st in
  let fp = saved_sp - cp.image.Interp.frame_bytes in
  if fp < Layout.stack_limit then
    Interp.trap "stack overflow in %s" p.Proc.name;
  Interp.set_stack_pointer st fp;
  Interp.push_activation st p.Proc.name;
  Machine.fp_frame (Interp.machine st) ~nregs:(max p.Proc.nfregs 1);
  let v = cp.blocks.(p.Proc.entry) { iregs; fregs; fp; trap_ix = 0 } in
  Interp.set_stack_pointer st saved_sp;
  Interp.pop_activation st;
  v

(* [call_proc] with the arguments copied straight from the caller's
   register arrays via compile-time index vectors — no per-call argument
   lists.  Reading the argument registers after the [fp_use] stalls is
   equivalent: stalls never change register contents. *)
let call_proc_from st (cp : cproc) ~(caller : frame) ~(args_a : int array)
    ~(fas_a : int array) =
  let p = cp.image.Interp.proc in
  let iregs = Array.make (max p.Proc.niregs 1) 0 in
  let fregs = Array.make (max p.Proc.nfregs 1) 0.0 in
  for i = 0 to Array.length args_a - 1 do
    iregs.(i) <- caller.iregs.(args_a.(i))
  done;
  for i = 0 to Array.length fas_a - 1 do
    fregs.(i) <- caller.fregs.(fas_a.(i))
  done;
  let saved_sp = Interp.stack_pointer st in
  let fp = saved_sp - cp.image.Interp.frame_bytes in
  if fp < Layout.stack_limit then
    Interp.trap "stack overflow in %s" p.Proc.name;
  Interp.set_stack_pointer st fp;
  Interp.push_activation st p.Proc.name;
  Machine.fp_frame (Interp.machine st) ~nregs:(max p.Proc.nfregs 1);
  let v = cp.blocks.(p.Proc.entry) { iregs; fregs; fp; trap_ix = 0 } in
  Interp.set_stack_pointer st saved_sp;
  Interp.pop_activation st;
  v

let do_call st (cprocs : cproc array) ~callee_idx ~(fr : frame) ~args_a
    ~fas_a ~ret =
  let mach = Interp.machine st in
  for i = 0 to Array.length fas_a - 1 do
    Machine.fp_use_hot mach ~src:(Array.unsafe_get fas_a i)
  done;
  let v = call_proc_from st cprocs.(callee_idx) ~caller:fr ~args_a ~fas_a in
  match (ret, v) with
  | I.Rnone, _ -> ()
  | I.Rint rd, Vint n -> fr.iregs.(rd) <- n
  | I.Rfloat fd, Vfloat x ->
      fr.fregs.(fd) <- x;
      Machine.fp_define mach ~dst:fd
  | I.Rint _, (Vfloat _ | Vvoid) | I.Rfloat _, (Vint _ | Vvoid) ->
      Interp.trap "call return kind mismatch"

(* An observer runs on the precise tier, after the segment before it has
   flushed its events: calls (the callee fetches, loads and stalls
   between this block's events), profiling pseudo-ops (the runtime
   interleaves its own charged fetches/loads/stores and reads the PICs),
   and direct PIC access. *)
let needs_precise = function
  | I.Call _ | I.Callind _ | I.Prof _ | I.Hwread _ | I.Hwzero | I.Hwwrite _
    ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Precise tier: one closure per instruction, events reported inline —
   the interpreter's [exec_instr], pre-dispatched.                     *)

let precise_step st cprocs ~pname ~addr (instr : I.t) : frame -> unit =
  let mach = Interp.machine st in
  let mem = Interp.memory st in
  let counters = Machine.counters mach in
  let layout = Interp.layout st in
  match instr with
  | I.Iconst (rd, n) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        fr.iregs.(rd) <- n
  | I.Iconst_sym (rd, sym) -> (
      match Layout.resolve layout sym with
      | a ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- a
      | exception Not_found ->
          fun _ ->
            Machine.fetch_hot mach ~addr;
            Interp.trap "unresolved symbol %s" sym)
  | I.Fconst (fd, x) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        fr.fregs.(fd) <- x;
        Machine.fp_define mach ~dst:fd
  | I.Imov (rd, rs) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        fr.iregs.(rd) <- fr.iregs.(rs)
  | I.Fmov (fd, fs) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Machine.fp_use_hot mach ~src:fs;
        fr.fregs.(fd) <- fr.fregs.(fs);
        Machine.fp_define mach ~dst:fd
  (* Arithmetic is expanded per operator so each closure runs its one
     primitive instead of re-matching [op] (and calling cross-module
     [exec_ibinop]) on every execution.  Trap messages stay byte-exact. *)
  | I.Ibinop (op, rd, rs1, rs2) -> (
      match op with
      | I.Add ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) + fr.iregs.(rs2)
      | I.Sub ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) - fr.iregs.(rs2)
      | I.Mul ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) * fr.iregs.(rs2)
      | I.Div ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            let b = fr.iregs.(rs2) in
            if b = 0 then Interp.trap "integer division by zero";
            fr.iregs.(rd) <- fr.iregs.(rs1) / b
      | I.Rem ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            let b = fr.iregs.(rs2) in
            if b = 0 then Interp.trap "integer remainder by zero";
            fr.iregs.(rd) <- fr.iregs.(rs1) mod b
      | I.And ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) land fr.iregs.(rs2)
      | I.Or ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) lor fr.iregs.(rs2)
      | I.Xor ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) lxor fr.iregs.(rs2)
      | I.Shl ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) lsl (fr.iregs.(rs2) land 63)
      | I.Shr ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs1) asr (fr.iregs.(rs2) land 63))
  | I.Ibinop_imm (op, rd, rs, imm) -> (
      match op with
      | I.Add ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) + imm
      | I.Sub ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) - imm
      | I.Mul ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) * imm
      | I.Div ->
          if imm = 0 then fun _ ->
            Machine.fetch_hot mach ~addr;
            Interp.trap "integer division by zero"
          else fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) / imm
      | I.Rem ->
          if imm = 0 then fun _ ->
            Machine.fetch_hot mach ~addr;
            Interp.trap "integer remainder by zero"
          else fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) mod imm
      | I.And ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) land imm
      | I.Or ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) lor imm
      | I.Xor ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) lxor imm
      | I.Shl ->
          let sh = imm land 63 in
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) lsl sh
      | I.Shr ->
          let sh = imm land 63 in
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- fr.iregs.(rs) asr sh)
  (* Comparisons are expanded per predicate: a curried comparator
     closure would go through [caml_apply2] on every execution. *)
  | I.Icmp (c, rd, rs1, rs2) -> (
      match c with
      | I.Eq ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs1) = fr.iregs.(rs2))
      | I.Ne ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs1) <> fr.iregs.(rs2))
      | I.Lt ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs1) < fr.iregs.(rs2))
      | I.Le ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs1) <= fr.iregs.(rs2))
      | I.Gt ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs1) > fr.iregs.(rs2))
      | I.Ge ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs1) >= fr.iregs.(rs2)))
  | I.Icmp_imm (c, rd, rs, imm) -> (
      match c with
      | I.Eq ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs) = imm)
      | I.Ne ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs) <> imm)
      | I.Lt ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs) < imm)
      | I.Le ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs) <= imm)
      | I.Gt ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs) > imm)
      | I.Ge ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            fr.iregs.(rd) <- Bool.to_int (fr.iregs.(rs) >= imm))
  | I.Fbinop (op, fd, fs1, fs2) ->
      let cls = Interp.fp_class op in
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Machine.fp_issue_hot mach ~cls ~dst:fd ~s1:fs1 ~s2:fs2;
        fr.fregs.(fd) <- Interp.exec_fbinop op fr.fregs.(fs1) fr.fregs.(fs2)
  | I.Fcmp (c, rd, fs1, fs2) -> (
      match c with
      | I.Eq ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            Machine.fp_use_hot mach ~src:fs1;
            Machine.fp_use_hot mach ~src:fs2;
            fr.iregs.(rd) <- Bool.to_int (fr.fregs.(fs1) = fr.fregs.(fs2))
      | I.Ne ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            Machine.fp_use_hot mach ~src:fs1;
            Machine.fp_use_hot mach ~src:fs2;
            fr.iregs.(rd) <- Bool.to_int (fr.fregs.(fs1) <> fr.fregs.(fs2))
      | I.Lt ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            Machine.fp_use_hot mach ~src:fs1;
            Machine.fp_use_hot mach ~src:fs2;
            fr.iregs.(rd) <- Bool.to_int (fr.fregs.(fs1) < fr.fregs.(fs2))
      | I.Le ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            Machine.fp_use_hot mach ~src:fs1;
            Machine.fp_use_hot mach ~src:fs2;
            fr.iregs.(rd) <- Bool.to_int (fr.fregs.(fs1) <= fr.fregs.(fs2))
      | I.Gt ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            Machine.fp_use_hot mach ~src:fs1;
            Machine.fp_use_hot mach ~src:fs2;
            fr.iregs.(rd) <- Bool.to_int (fr.fregs.(fs1) > fr.fregs.(fs2))
      | I.Ge ->
          fun fr ->
            Machine.fetch_hot mach ~addr;
            Machine.fp_use_hot mach ~src:fs1;
            Machine.fp_use_hot mach ~src:fs2;
            fr.iregs.(rd) <- Bool.to_int (fr.fregs.(fs1) >= fr.fregs.(fs2)))
  | I.Itof (fd, rs) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        fr.fregs.(fd) <- float_of_int fr.iregs.(rs);
        Machine.fp_define mach ~dst:fd
  | I.Ftoi (rd, fs) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Machine.fp_use_hot mach ~src:fs;
        let x = fr.fregs.(fs) in
        if Float.is_nan x || Float.abs x >= 4.6e18 then
          Interp.trap "float-to-int out of range (%g)" x;
        fr.iregs.(rd) <- int_of_float x
  | I.Load (rd, rb, off) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        let a = fr.iregs.(rb) + off in
        Machine.load_hot mach ~addr:a;
        (try fr.iregs.(rd) <- Memory.read_int mem a
         with Memory.Fault m -> Interp.trap "load: %s" m)
  | I.Store (rs, rb, off) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        let a = fr.iregs.(rb) + off in
        Machine.store_hot mach ~addr:a;
        (try Memory.write_int mem a fr.iregs.(rs)
         with Memory.Fault m -> Interp.trap "store: %s" m)
  | I.Fload (fd, rb, off) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        let a = fr.iregs.(rb) + off in
        Machine.load_hot mach ~addr:a;
        (try Memory.read_float_into mem a fr.fregs fd
         with Memory.Fault m -> Interp.trap "load: %s" m);
        Machine.fp_define mach ~dst:fd
  | I.Fstore (fs, rb, off) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Machine.fp_use_hot mach ~src:fs;
        let a = fr.iregs.(rb) + off in
        Machine.store_hot mach ~addr:a;
        (try Memory.write_float_from mem a fr.fregs fs
         with Memory.Fault m -> Interp.trap "store: %s" m)
  | I.Call { callee; args; fargs = fas; ret; _ } -> (
      match Interp.proc_index st callee with
      | None ->
          fun _ ->
            Machine.fetch_hot mach ~addr;
            Interp.trap "call to unknown procedure %s" callee
      | Some callee_idx ->
          let args_a = Array.of_list args and fas_a = Array.of_list fas in
          fun fr ->
            Machine.fetch_hot mach ~addr;
            do_call st cprocs ~callee_idx ~fr ~args_a ~fas_a ~ret)
  | I.Callind { target; args; fargs = fas; ret; _ } ->
      let args_a = Array.of_list args and fas_a = Array.of_list fas in
      let nargs = Array.length args_a and nfas = Array.length fas_a in
      fun fr ->
        Machine.fetch_hot mach ~addr;
        let a = fr.iregs.(target) in
        let callee_idx =
          match Interp.proc_index_of_addr st a with
          | Some i -> i
          | None -> Interp.trap "indirect call to non-procedure address 0x%x" a
        in
        let callee = cprocs.(callee_idx).image.Interp.proc in
        if
          callee.Proc.iparams <> nargs
          || callee.Proc.fparams <> nfas
          || callee.Proc.returns <> Proc.Returns_int
        then Interp.trap "indirect call signature mismatch on %s" callee.Proc.name;
        do_call st cprocs ~callee_idx ~fr ~args_a ~fas_a ~ret
  | I.Hwread (rd, k) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        fr.iregs.(rd) <- Counters.read_pic counters k
  | I.Hwzero ->
      fun _ ->
        Machine.fetch_hot mach ~addr;
        Counters.zero_pics counters
  | I.Hwwrite (rs, k) ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Counters.write_pic counters k fr.iregs.(rs)
  | I.Frameaddr (rd, off) ->
      let disp = Interp.linkage_bytes + off in
      fun fr ->
        Machine.fetch_hot mach ~addr;
        fr.iregs.(rd) <- fr.fp + disp
  | I.Print_int r ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Interp.push_output st (Interp.Oint fr.iregs.(r))
  | I.Print_float f ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Machine.fp_use_hot mach ~src:f;
        Interp.push_output st (Interp.Ofloat fr.fregs.(f))
  | I.Prof op ->
      fun fr ->
        Machine.fetch_hot mach ~addr;
        Interp.dispatch_prof st ~proc:pname ~op_addr:addr ~fp:fr.fp
          ~iregs:fr.iregs op

(* ------------------------------------------------------------------ *)
(* Batched tier.                                                       *)

(* Register accesses in batched semantic closures skip the bounds check:
   {!compile_block} only takes this tier when every operand index was
   verified in range at compile time (out-of-range blocks fall back to
   the bounds-checked precise tier), and [dyn] slots are in range by
   construction. *)
let[@inline always] uget (a : int array) i = Array.unsafe_get a i
let[@inline always] uset (a : int array) i v = Array.unsafe_set a i v
let[@inline always] fget (a : float array) i = Array.unsafe_get a i
let[@inline always] fset (a : float array) i v = Array.unsafe_set a i v

(* Semantic closure of one batchable instruction: pure register/memory
   work, no machine events (those are replayed by [block_step] from the
   pre-compiled op list).  [dyn]/[slot] carry runtime load/store
   addresses to the batch; trappable closures stamp [fr.trap_ix] so a
   trap can replay the machine events of the completed prefix. *)
let batch_sem st ~k ~slot ~(dyn : int array) (instr : I.t) : frame -> unit =
  let mem = Interp.memory st in
  let layout = Interp.layout st in
  match instr with
  | I.Iconst (rd, n) -> fun fr -> uset fr.iregs rd n
  | I.Iconst_sym (rd, sym) -> (
      match Layout.resolve layout sym with
      | a -> fun fr -> uset fr.iregs rd a
      | exception Not_found ->
          fun fr ->
            fr.trap_ix <- k;
            Interp.trap "unresolved symbol %s" sym)
  | I.Fconst (fd, x) -> fun fr -> fset fr.fregs fd x
  | I.Imov (rd, rs) -> fun fr -> uset fr.iregs rd (uget fr.iregs rs)
  | I.Fmov (fd, fs) -> fun fr -> fset fr.fregs fd (fget fr.fregs fs)
  | I.Ibinop (op, rd, rs1, rs2) -> (
      match op with
      | I.Add ->
          fun fr -> uset fr.iregs rd (uget fr.iregs rs1 + uget fr.iregs rs2)
      | I.Sub ->
          fun fr -> uset fr.iregs rd (uget fr.iregs rs1 - uget fr.iregs rs2)
      | I.Mul ->
          fun fr -> uset fr.iregs rd (uget fr.iregs rs1 * uget fr.iregs rs2)
      | I.And ->
          fun fr ->
            uset fr.iregs rd (uget fr.iregs rs1 land uget fr.iregs rs2)
      | I.Or ->
          fun fr ->
            uset fr.iregs rd (uget fr.iregs rs1 lor uget fr.iregs rs2)
      | I.Xor ->
          fun fr ->
            uset fr.iregs rd (uget fr.iregs rs1 lxor uget fr.iregs rs2)
      | I.Shl ->
          fun fr ->
            uset fr.iregs rd
              (uget fr.iregs rs1 lsl (uget fr.iregs rs2 land 63))
      | I.Shr ->
          fun fr ->
            uset fr.iregs rd
              (uget fr.iregs rs1 asr (uget fr.iregs rs2 land 63))
      | I.Div ->
          fun fr ->
            fr.trap_ix <- k;
            let b = uget fr.iregs rs2 in
            if b = 0 then Interp.trap "integer division by zero";
            uset fr.iregs rd (uget fr.iregs rs1 / b)
      | I.Rem ->
          fun fr ->
            fr.trap_ix <- k;
            let b = uget fr.iregs rs2 in
            if b = 0 then Interp.trap "integer remainder by zero";
            uset fr.iregs rd (uget fr.iregs rs1 mod b))
  | I.Ibinop_imm (op, rd, rs, imm) -> (
      match op with
      | I.Add -> fun fr -> uset fr.iregs rd (uget fr.iregs rs + imm)
      | I.Sub -> fun fr -> uset fr.iregs rd (uget fr.iregs rs - imm)
      | I.Mul -> fun fr -> uset fr.iregs rd (uget fr.iregs rs * imm)
      | I.And -> fun fr -> uset fr.iregs rd (uget fr.iregs rs land imm)
      | I.Or -> fun fr -> uset fr.iregs rd (uget fr.iregs rs lor imm)
      | I.Xor -> fun fr -> uset fr.iregs rd (uget fr.iregs rs lxor imm)
      | I.Shl ->
          let sh = imm land 63 in
          fun fr -> uset fr.iregs rd (uget fr.iregs rs lsl sh)
      | I.Shr ->
          let sh = imm land 63 in
          fun fr -> uset fr.iregs rd (uget fr.iregs rs asr sh)
      | I.Div ->
          if imm = 0 then fun fr ->
            fr.trap_ix <- k;
            Interp.trap "integer division by zero"
          else fun fr -> uset fr.iregs rd (uget fr.iregs rs / imm)
      | I.Rem ->
          if imm = 0 then fun fr ->
            fr.trap_ix <- k;
            Interp.trap "integer remainder by zero"
          else fun fr -> uset fr.iregs rd (uget fr.iregs rs mod imm))
  | I.Icmp (c, rd, rs1, rs2) -> (
      (* Specialised per comparison: a two-argument comparator closure
         would go through [caml_apply2] on every execution. *)
      match c with
      | I.Eq ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (uget fr.iregs rs1 = uget fr.iregs rs2))
      | I.Ne ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (uget fr.iregs rs1 <> uget fr.iregs rs2))
      | I.Lt ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (uget fr.iregs rs1 < uget fr.iregs rs2))
      | I.Le ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (uget fr.iregs rs1 <= uget fr.iregs rs2))
      | I.Gt ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (uget fr.iregs rs1 > uget fr.iregs rs2))
      | I.Ge ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (uget fr.iregs rs1 >= uget fr.iregs rs2)))
  | I.Icmp_imm (c, rd, rs, imm) -> (
      match c with
      | I.Eq ->
          fun fr -> uset fr.iregs rd (Bool.to_int (uget fr.iregs rs = imm))
      | I.Ne ->
          fun fr -> uset fr.iregs rd (Bool.to_int (uget fr.iregs rs <> imm))
      | I.Lt ->
          fun fr -> uset fr.iregs rd (Bool.to_int (uget fr.iregs rs < imm))
      | I.Le ->
          fun fr -> uset fr.iregs rd (Bool.to_int (uget fr.iregs rs <= imm))
      | I.Gt ->
          fun fr -> uset fr.iregs rd (Bool.to_int (uget fr.iregs rs > imm))
      | I.Ge ->
          fun fr -> uset fr.iregs rd (Bool.to_int (uget fr.iregs rs >= imm)))
  | I.Fbinop (op, fd, fs1, fs2) -> (
      match op with
      | I.Fadd ->
          fun fr -> fset fr.fregs fd (fget fr.fregs fs1 +. fget fr.fregs fs2)
      | I.Fsub ->
          fun fr -> fset fr.fregs fd (fget fr.fregs fs1 -. fget fr.fregs fs2)
      | I.Fmul ->
          fun fr -> fset fr.fregs fd (fget fr.fregs fs1 *. fget fr.fregs fs2)
      | I.Fdiv ->
          fun fr -> fset fr.fregs fd (fget fr.fregs fs1 /. fget fr.fregs fs2))
  | I.Fcmp (c, rd, fs1, fs2) -> (
      match c with
      | I.Eq ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (fget fr.fregs fs1 = fget fr.fregs fs2))
      | I.Ne ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (fget fr.fregs fs1 <> fget fr.fregs fs2))
      | I.Lt ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (fget fr.fregs fs1 < fget fr.fregs fs2))
      | I.Le ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (fget fr.fregs fs1 <= fget fr.fregs fs2))
      | I.Gt ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (fget fr.fregs fs1 > fget fr.fregs fs2))
      | I.Ge ->
          fun fr ->
            uset fr.iregs rd
              (Bool.to_int (fget fr.fregs fs1 >= fget fr.fregs fs2)))
  | I.Itof (fd, rs) ->
      fun fr -> fset fr.fregs fd (float_of_int (uget fr.iregs rs))
  | I.Ftoi (rd, fs) ->
      fun fr ->
        fr.trap_ix <- k;
        let x = fget fr.fregs fs in
        if Float.is_nan x || Float.abs x >= 4.6e18 then
          Interp.trap "float-to-int out of range (%g)" x;
        uset fr.iregs rd (int_of_float x)
  | I.Load (rd, rb, off) ->
      fun fr ->
        fr.trap_ix <- k;
        let a = uget fr.iregs rb + off in
        uset dyn slot a;
        (try uset fr.iregs rd (Memory.read_int mem a)
         with Memory.Fault m -> Interp.trap "load: %s" m)
  | I.Store (rs, rb, off) ->
      fun fr ->
        fr.trap_ix <- k;
        let a = uget fr.iregs rb + off in
        uset dyn slot a;
        (try Memory.write_int mem a (uget fr.iregs rs)
         with Memory.Fault m -> Interp.trap "store: %s" m)
  | I.Fload (fd, rb, off) ->
      fun fr ->
        fr.trap_ix <- k;
        let a = uget fr.iregs rb + off in
        uset dyn slot a;
        (try Memory.read_float_into mem a fr.fregs fd
         with Memory.Fault m -> Interp.trap "load: %s" m)
  | I.Fstore (fs, rb, off) ->
      fun fr ->
        fr.trap_ix <- k;
        let a = uget fr.iregs rb + off in
        uset dyn slot a;
        (try Memory.write_float_from mem a fr.fregs fs
         with Memory.Fault m -> Interp.trap "store: %s" m)
  | I.Frameaddr (rd, off) ->
      let disp = Interp.linkage_bytes + off in
      fun fr -> uset fr.iregs rd (fr.fp + disp)
  | I.Print_int r ->
      fun fr -> Interp.push_output st (Interp.Oint (uget fr.iregs r))
  | I.Print_float f ->
      fun fr -> Interp.push_output st (Interp.Ofloat (fget fr.fregs f))
  | I.Call _ | I.Callind _ | I.Prof _ | I.Hwread _ | I.Hwzero | I.Hwwrite _
    ->
      assert false (* precise tier *)

(* Machine events of instruction [j], replayed individually after a trap
   in a batched block.  [faulting] truncates at the instruction's trap
   point (only [Fload] differs: its [fp_define] follows the memory read,
   so a faulted load never reaches it).  Every other trappable
   instruction emits all its events before the trap, exactly as the
   interpreter does. *)
let replay_instr mach ~dyn ~(slots : int array) ~faulting j (instr : I.t) =
  match instr with
  | I.Fconst (fd, _) | I.Itof (fd, _) -> Machine.fp_define mach ~dst:fd
  | I.Fmov (fd, fs) ->
      Machine.fp_use mach ~src:fs;
      Machine.fp_define mach ~dst:fd
  | I.Fbinop (op, fd, fs1, fs2) ->
      Machine.fp_issue mach ~cls:(Interp.fp_class op) ~dst:fd
        ~srcs:[ fs1; fs2 ]
  | I.Fcmp (_, _, fs1, fs2) ->
      Machine.fp_use mach ~src:fs1;
      Machine.fp_use mach ~src:fs2
  | I.Ftoi (_, fs) -> Machine.fp_use mach ~src:fs
  | I.Load _ -> Machine.load mach ~addr:dyn.(slots.(j))
  | I.Fload (fd, _, _) ->
      Machine.load mach ~addr:dyn.(slots.(j));
      if not faulting then Machine.fp_define mach ~dst:fd
  | I.Store _ -> Machine.store mach ~addr:dyn.(slots.(j))
  | I.Fstore (fs, _, _) ->
      Machine.fp_use mach ~src:fs;
      Machine.store mach ~addr:dyn.(slots.(j))
  | I.Print_float f -> Machine.fp_use mach ~src:f
  | _ -> ()

(* Compose a block's per-instruction closures into one: chunks of four
   are unrolled, so executing the body costs one indirect call per
   instruction without the dispatch loop's bookkeeping. *)
let fuse (fs : (frame -> unit) array) : frame -> unit =
  let rec chain lo =
    match Array.length fs - lo with
    | 0 -> fun (_ : frame) -> ()
    | 1 -> fs.(lo)
    | 2 ->
        let f0 = fs.(lo) and f1 = fs.(lo + 1) in
        fun fr ->
          f0 fr;
          f1 fr
    | 3 ->
        let f0 = fs.(lo) and f1 = fs.(lo + 1) and f2 = fs.(lo + 2) in
        fun fr ->
          f0 fr;
          f1 fr;
          f2 fr
    | 4 ->
        let f0 = fs.(lo)
        and f1 = fs.(lo + 1)
        and f2 = fs.(lo + 2)
        and f3 = fs.(lo + 3) in
        fun fr ->
          f0 fr;
          f1 fr;
          f2 fr;
          f3 fr
    | _ ->
        let f0 = fs.(lo)
        and f1 = fs.(lo + 1)
        and f2 = fs.(lo + 2)
        and f3 = fs.(lo + 3)
        and rest = chain (lo + 4) in
        fun fr ->
          f0 fr;
          f1 fr;
          f2 fr;
          f3 fr;
          rest fr
  in
  chain 0

(* ------------------------------------------------------------------ *)
(* Segments.                                                           *)

(* How a segment's machine events are applied after its semantic
   closures have run, chosen at compile time. *)
type flush =
  | Bulk of { leaders : int array; nloads : int }
      (* only fetches and integer loads: one [Machine.block_bulk] *)
  | Ordered of {
      ops : Machine.block_op array;
      loads : int;
      stores : int;
      fpops : int;
    }
      (* [Machine.block_static] for the fixed counts, then
         [Machine.block_step] for probes, stalls and the clock *)

(* A maximal run of batchable instructions, compiled for batched
   execution.  [replay upto] reports the machine events of instructions
   [0..upto] individually, after a trap at [upto]. *)
type segment = {
  body : frame -> unit;
  insts : int;
  dyn : int array;
  flush : flush;
  replay : int -> unit;
}

(* Batch a run of instructions holding no observer.  Indices are local
   to the run: [trap_ix], [dyn] slots and fetch leaders all start at 0,
   and the first fetch always probes — the instruction before the run,
   if any, may have been a call or a runtime stub that touched the
   icache. *)
let batch_segment st ~line_bytes (code : I.t array) (addrs : int array) =
  let mach = Interp.machine st in
  let n = Array.length code in
  let nmem =
    Array.fold_left
      (fun acc i ->
        match i with
        | I.Load _ | I.Store _ | I.Fload _ | I.Fstore _ -> acc + 1
        | _ -> acc)
      0 code
  in
  let dyn = Array.make (max nmem 1) 0 in
  let slots = Array.make (max n 1) (-1) in
  let ops_rev = ref [] in
  let pend_count = ref 0 in
  let pend_leaders_rev = ref [] in
  (* [last_line] persists across fetch runs: only fetches touch the
     icache inside a segment, so a line probed by an earlier run is still
     the most recent in its set when a later run re-fetches it — each
     distinct line is probed exactly once per segment execution. *)
  let last_line = ref min_int in
  let push_fetch addr =
    let line = addr / line_bytes in
    if line <> !last_line then pend_leaders_rev := addr :: !pend_leaders_rev;
    last_line := line;
    incr pend_count
  in
  let flush_fetches () =
    if !pend_count > 0 then begin
      ops_rev :=
        Machine.Bfetch
          {
            count = !pend_count;
            leaders = Array.of_list (List.rev !pend_leaders_rev);
          }
        :: !ops_rev;
      pend_count := 0;
      pend_leaders_rev := []
    end
  in
  let emit op =
    flush_fetches ();
    ops_rev := op :: !ops_rev
  in
  let next_slot = ref 0 in
  let sems =
    Array.mapi
      (fun k instr ->
        push_fetch addrs.(k);
        let slot =
          match instr with
          | I.Load _ | I.Store _ | I.Fload _ | I.Fstore _ ->
              let s = !next_slot in
              incr next_slot;
              slots.(k) <- s;
              s
          | _ -> -1
        in
        (* Event ops of this instruction, in the interpreter's order. *)
        (match instr with
        | I.Fconst (fd, _) | I.Itof (fd, _) -> emit (Machine.Bfp_define fd)
        | I.Fmov (fd, fs) ->
            emit (Machine.Bfp_use fs);
            emit (Machine.Bfp_define fd)
        | I.Fbinop (op, fd, fs1, fs2) ->
            emit
              (Machine.Bfp_issue
                 { cls = Interp.fp_class op; dst = fd; s1 = fs1; s2 = fs2 })
        | I.Fcmp (_, _, fs1, fs2) ->
            emit (Machine.Bfp_use fs1);
            emit (Machine.Bfp_use fs2)
        | I.Ftoi (_, fs) -> emit (Machine.Bfp_use fs)
        | I.Load _ -> emit (Machine.Bload slot)
        | I.Fload (fd, _, _) ->
            emit (Machine.Bload slot);
            emit (Machine.Bfp_define fd)
        | I.Store _ -> emit (Machine.Bstore slot)
        | I.Fstore (fs, _, _) ->
            emit (Machine.Bfp_use fs);
            emit (Machine.Bstore slot)
        | I.Print_float f -> emit (Machine.Bfp_use f)
        | _ -> ());
        batch_sem st ~k ~slot ~dyn instr)
      code
  in
  flush_fetches ();
  let ops = Array.of_list (List.rev !ops_rev) in
  let replay upto =
    for j = 0 to upto do
      Machine.fetch mach ~addr:addrs.(j);
      replay_instr mach ~dyn ~slots ~faulting:(j = upto) j code.(j)
    done
  in
  (* Segments whose events are only fetches and integer loads take the
     bulk form: one [Machine.block_bulk] call instead of an op-list walk.
     ([Fload] emits an FP define, so any segment on this path has [dyn]
     slots 0..nmem-1 holding plain loads in order.) *)
  let bulk_ok =
    Array.for_all
      (function Machine.Bfetch _ | Machine.Bload _ -> true | _ -> false)
      ops
  in
  let flush =
    if bulk_ok then
      let leaders =
        Array.concat
          (List.filter_map
             (function
               | Machine.Bfetch { leaders; _ } -> Some leaders | _ -> None)
             (Array.to_list ops))
      in
      Bulk { leaders; nloads = nmem }
    else
      let count p =
        Array.fold_left (fun c op -> if p op then c + 1 else c) 0 ops
      in
      Ordered
        {
          ops;
          loads = count (function Machine.Bload _ -> true | _ -> false);
          stores = count (function Machine.Bstore _ -> true | _ -> false);
          fpops = count (function Machine.Bfp_issue _ -> true | _ -> false);
        }
  in
  { body = fuse sems; insts = n; dyn; flush; replay }

(* A segment as one closure: semantics (replaying the completed prefix's
   events on a trap), then its event flush. *)
let segment_step mach { body; insts; dyn; flush; replay } : frame -> unit =
  match flush with
  | Bulk { leaders; nloads } ->
      fun fr ->
        (try body fr
         with e ->
           replay fr.trap_ix;
           raise e);
        Machine.block_bulk mach ~fetches:insts ~leaders ~dyn ~nloads
  | Ordered { ops; loads; stores; fpops } ->
      fun fr ->
        (try body fr
         with e ->
           replay fr.trap_ix;
           raise e);
        Machine.block_static mach ~insts ~loads ~stores ~fpops;
        Machine.block_step mach ops ~dyn

(* ------------------------------------------------------------------ *)
(* Block compilation.                                                  *)

let compile_block st (cprocs : cproc array) (cp : cproc) label =
  let image = cp.image in
  let p = image.Interp.proc in
  let pname = p.Proc.name in
  let code = image.Interp.code.(label) in
  let addrs = image.Interp.addrs.(label) in
  let taddr = image.Interp.term_addr.(label) in
  let term = (Proc.block p label).Block.term in
  let mach = Interp.machine st in
  let blocks = cp.blocks in
  let n = Array.length code in
  (* Per-block fixed costs, pre-resolved: the hook flag is polled as a
     captured-record field read, and the budget check is one array read
     against the live totals ([Counters.clear] fills in place, so the
     array stays valid across {!Machine.reset}).  When a hook is active
     or the budget is exhausted, [Interp.block_epilogue] runs in full —
     including the trap with the interpreter's exact message. *)
  let h = Interp.hot st in
  let tot = Counters.raw_totals (Machine.counters mach) in
  let ix_insts = Counters.ix Pp_machine.Event.Instructions in
  let maxi = Interp.max_instructions st in
  let term_step : frame -> ret_value =
    match term with
    | Block.Jmp l -> fun fr -> (Array.unsafe_get blocks l) fr
    | Block.Br (r, tl, fl) ->
        fun fr ->
          let taken = fr.iregs.(r) <> 0 in
          Machine.branch_hot mach ~addr:taddr ~taken;
          if taken then (Array.unsafe_get blocks tl) fr
          else (Array.unsafe_get blocks fl) fr
    | Block.Ret Block.Ret_void -> fun _ -> Vvoid
    | Block.Ret (Block.Ret_int r) -> fun fr -> Vint fr.iregs.(r)
    | Block.Ret (Block.Ret_float f) ->
        fun fr ->
          Machine.fp_use_hot mach ~src:f;
          Vfloat fr.fregs.(f)
  in
  (* Batched sems access registers unchecked, so the batch tier also
     requires every operand index verified in range here; a block of an
     invalid (unvalidated) program runs wholly on the bounds-checked
     precise tier, which fails exactly like the interpreter. *)
  let regs_ok =
    Array.for_all
      (fun i ->
        List.for_all
          (fun r -> r >= 0 && r < p.Proc.niregs)
          (I.idefs i @ I.iuses i)
        && List.for_all
             (fun r -> r >= 0 && r < p.Proc.nfregs)
             (I.fdefs i @ I.fuses i))
      code
  in
  let precise i = needs_precise i || not regs_ok in
  let line_bytes =
    (Machine.config mach).Pp_machine.Config.icache.Pp_machine.Config.line_bytes
  in
  (* The terminator's icache probe is elided when it shares a line with
     the last body fetch and nothing in between touches the icache.  A
     call's callee and a runtime stub fetch their own code, so a block
     ending in one always probes. *)
  let term_probe =
    n = 0
    || addrs.(n - 1) / line_bytes <> taddr / line_bytes
    ||
    match code.(n - 1) with
    | I.Call _ | I.Callind _ | I.Prof _ -> true
    | _ -> false
  in
  if Array.exists precise code then begin
    (* Observers split the block into segments.  Each segment flushes its
       events before the next observer runs precisely, so PICs, counter
       totals and the clock are current when it reads them. *)
    let pieces = ref [] and lo = ref 0 in
    let close_segment hi =
      if hi > !lo then
        pieces :=
          segment_step mach
            (batch_segment st ~line_bytes
               (Array.sub code !lo (hi - !lo))
               (Array.sub addrs !lo (hi - !lo)))
          :: !pieces
    in
    Array.iteri
      (fun k instr ->
        if precise instr then begin
          close_segment k;
          pieces :=
            precise_step st cprocs ~pname ~addr:addrs.(k) instr :: !pieces;
          lo := k + 1
        end)
      code;
    close_segment n;
    let body = fuse (Array.of_list (List.rev !pieces)) in
    fun fr ->
      if h.Interp.hooks then
        Interp.block_entered st ~proc:pname ~label ~fp:fr.fp ~iregs:fr.iregs;
      body fr;
      if h.Interp.hooks || Array.unsafe_get tot ix_insts > maxi then
        Interp.block_epilogue st;
      Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
      term_step fr
  end
  else
    (* A block without observers is one segment, flushed inline. *)
    let { body; insts; dyn; flush; replay } =
      batch_segment st ~line_bytes code addrs
    in
    match flush with
    | Bulk _ when n = 0 ->
        fun fr ->
          if h.Interp.hooks then
            Interp.block_entered st ~proc:pname ~label ~fp:fr.fp
              ~iregs:fr.iregs;
          if h.Interp.hooks || Array.unsafe_get tot ix_insts > maxi then
            Interp.block_epilogue st;
          Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
          term_step fr
    | Bulk { leaders; nloads } ->
        fun fr ->
          if h.Interp.hooks then
            Interp.block_entered st ~proc:pname ~label ~fp:fr.fp
              ~iregs:fr.iregs;
          (try body fr
           with e ->
             replay fr.trap_ix;
             raise e);
          Machine.block_bulk mach ~fetches:insts ~leaders ~dyn ~nloads;
          if h.Interp.hooks || Array.unsafe_get tot ix_insts > maxi then
            Interp.block_epilogue st;
          Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
          term_step fr
    | Ordered { ops; loads; stores; fpops } ->
        fun fr ->
          if h.Interp.hooks then
            Interp.block_entered st ~proc:pname ~label ~fp:fr.fp
              ~iregs:fr.iregs;
          (try body fr
           with e ->
             replay fr.trap_ix;
             raise e);
          Machine.block_static mach ~insts ~loads ~stores ~fpops;
          Machine.block_step mach ops ~dyn;
          if h.Interp.hooks || Array.unsafe_get tot ix_insts > maxi then
            Interp.block_epilogue st;
          Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
          term_step fr

let compile_proc st cprocs (cp : cproc) =
  let nb = Array.length cp.image.Interp.code in
  cp.blocks <-
    Array.make (max nb 1) (fun _ ->
        Interp.trap "compiled block invoked before compilation");
  for label = 0 to nb - 1 do
    cp.blocks.(label) <- compile_block st cprocs cp label
  done

let create st =
  let cprocs =
    Array.map
      (fun image -> { image; blocks = [||] })
      (Interp.images st)
  in
  Array.iter (fun cp -> compile_proc st cprocs cp) cprocs;
  { st; cprocs }

let run t =
  let st = t.st in
  let v = call_proc st t.cprocs.(Interp.main_index st) ~iargs:[] ~fargs:[] in
  (match v with
  | Vvoid -> ()
  | Vint _ | Vfloat _ -> Interp.trap "main returned a value");
  Interp.collect_result st
