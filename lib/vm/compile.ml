(* The closure-threaded compilation tier.

   Each validated CFG is translated once, ahead of execution, into one
   OCaml closure per basic block: operands are resolved to register-array
   slots at compile time, the per-instruction opcode dispatch disappears,
   and a block's successor transfer is a direct tail call into the next
   block's closure.  Machine-model events are batched per block — the
   semantic closures run first, recording load/store addresses into a
   per-block buffer, then one flush applies the block's events from a
   plan built at compile time ({!Pp_machine.Machine.plan}): the fetches
   and loads between two clock-reading events in one step, each store
   and FP event individually and in original order.

   Instructions that observe or perturb mid-block machine state — calls,
   profiling pseudo-ops, PIC reads/writes — are observers.  They split a
   block into segments, maximal runs of batchable instructions, each
   batched like a whole block and flushed before the next observer runs
   on the precise tier (one closure reporting its events inline, exactly
   like the interpreter), so counters are current whenever an observer
   reads them.  The precise tier compiles only observers; every other
   instruction is batched, its register accesses unchecked because a
   {!Pp_ir.Proc.t} names only in-range registers by construction.  A
   segment that traps (division by zero, memory fault, float conversion,
   unresolved symbol) replays the machine events of its completed prefix
   plus the faulting instruction's pre-trap events before re-raising, so
   counters, cycles and [Trap] messages stay bit-identical to
   {!Interp.run}.

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

(* One activation's register file.  Frames are pooled per procedure and
   indexed by activation depth: a call takes the frame at its depth and
   zeroes it, so it reads exactly like a fresh [Array.make], and nothing
   is allocated per call. *)
type frame = {
  iregs : int array;
  fregs : float array;
  mutable fp : int;
  mutable trap_ix : int;
      (* index of the instruction whose semantic closure is mid-flight;
         maintained only by closures that can trap, read only when one
         does (to drive the event replay of the completed prefix) *)
}

(* What a block closure returns: the kind of the procedure's return, the
   value itself travelling through the engine's [rets] slot, unboxed. *)
let ret_void = 0
let ret_int = 1
let ret_float = 2

type rets = { mutable ri : int; rf : float array (* of length 1 *) }

type cproc = {
  image : Interp.image;
  mutable blocks : (frame -> int) array;
  mutable pool : frame array;  (* [0 .. nframes - 1] allocated *)
  mutable nframes : int;
  mutable depth : int;  (* live activations; reset by {!run} *)
}

type t = { st : Interp.t; cprocs : cproc array }

let no_frame = { iregs = [||]; fregs = [||]; fp = 0; trap_ix = 0 }

(* The first activation at depth [cp.nframes]: grow the pool array
   geometrically (recursion to the stack limit would make one-slot growth
   quadratic) and allocate the one frame. *)
let add_frame (cp : cproc) =
  let n = cp.nframes in
  if n = Array.length cp.pool then begin
    let pool = Array.make (max 4 (2 * n)) no_frame in
    Array.blit cp.pool 0 pool 0 n;
    cp.pool <- pool
  end;
  cp.pool.(n) <-
    {
      iregs = Array.make cp.image.Interp.nregs_i 0;
      fregs = Array.make cp.image.Interp.nregs_f 0.0;
      fp = 0;
      trap_ix = 0;
    };
  cp.nframes <- n + 1

(* One procedure activation: take and zero the frame at [cp]'s depth,
   copy the arguments straight from the caller's register arrays via
   compile-time index vectors, run the entry block (control then threads
   itself through tail calls).  Reading the argument registers after the
   [fp_use] stalls is equivalent: stalls never change register contents.
   Mirrors [Interp.exec_proc] — including not restoring [sp], the call
   stack or the depth when a trap propagates ({!run} resets all three). *)
let call_proc_from st (cp : cproc) ~(caller : frame) ~(args_a : int array)
    ~(fas_a : int array) =
  let image = cp.image in
  let p = image.Interp.proc in
  let saved_sp = Interp.stack_pointer st in
  let fp = saved_sp - image.Interp.frame_bytes in
  if fp < Layout.stack_limit then
    Interp.trap "stack overflow in %s" p.Proc.name;
  let d = cp.depth in
  if d = cp.nframes then add_frame cp;
  let fr = Array.unsafe_get cp.pool d in
  cp.depth <- d + 1;
  let iregs = fr.iregs and fregs = fr.fregs in
  for i = 0 to Array.length iregs - 1 do
    Array.unsafe_set iregs i 0
  done;
  for i = 0 to Array.length fregs - 1 do
    Array.unsafe_set fregs i 0.0
  done;
  fr.fp <- fp;
  fr.trap_ix <- 0;
  for i = 0 to Array.length args_a - 1 do
    iregs.(i) <- caller.iregs.(args_a.(i))
  done;
  for i = 0 to Array.length fas_a - 1 do
    fregs.(i) <- caller.fregs.(fas_a.(i))
  done;
  Interp.set_stack_pointer st fp;
  Interp.push_activation st p.Proc.name;
  Machine.fp_frame (Interp.machine st) ~nregs:image.Interp.nregs_f;
  let k = cp.blocks.(p.Proc.entry) fr in
  Interp.set_stack_pointer st saved_sp;
  Interp.pop_activation st;
  cp.depth <- d;
  k

let do_call st (cprocs : cproc array) rets ~callee_idx ~(fr : frame) ~args_a
    ~fas_a ~ret =
  let mach = Interp.machine st in
  for i = 0 to Array.length fas_a - 1 do
    Machine.fp_use mach ~src:(Array.unsafe_get fas_a i)
  done;
  let k = call_proc_from st cprocs.(callee_idx) ~caller:fr ~args_a ~fas_a in
  match ret with
  | I.Rnone -> ()
  | I.Rint rd when k = ret_int -> fr.iregs.(rd) <- rets.ri
  | I.Rfloat fd when k = ret_float ->
      fr.fregs.(fd) <- Array.unsafe_get rets.rf 0;
      Machine.fp_define mach ~dst:fd
  | I.Rint _ | I.Rfloat _ -> Interp.trap "call return kind mismatch"

(* An observer runs on the precise tier, after the segment before it has
   flushed its events: calls (the callee fetches, loads and stalls
   between this block's events), profiling pseudo-ops (the runtime
   interleaves its own charged fetches/loads/stores and reads the PICs),
   and direct PIC access.  Any other instruction is batched ([None]). *)
let precise_step st cprocs rets ~pname ~addr (instr : I.t) :
    (frame -> unit) option =
  let mach = Interp.machine st in
  let counters = Machine.counters mach in
  match instr with
  | I.Call { callee; args; fargs = fas; ret; _ } -> (
      match Interp.proc_index st callee with
      | None ->
          Some
            (fun _ ->
              Machine.fetch mach ~addr;
              Interp.trap "call to unknown procedure %s" callee)
      | Some callee_idx ->
          let args_a = Array.of_list args and fas_a = Array.of_list fas in
          Some
            (fun fr ->
              Machine.fetch mach ~addr;
              do_call st cprocs rets ~callee_idx ~fr ~args_a ~fas_a ~ret))
  | I.Callind { target; args; fargs = fas; ret; _ } ->
      let args_a = Array.of_list args and fas_a = Array.of_list fas in
      let nargs = Array.length args_a and nfas = Array.length fas_a in
      Some
        (fun fr ->
          Machine.fetch mach ~addr;
          let a = fr.iregs.(target) in
          let callee_idx = Interp.proc_index_of_addr st a in
          if callee_idx < 0 then
            Interp.trap "indirect call to non-procedure address 0x%x" a;
          let callee = cprocs.(callee_idx).image.Interp.proc in
          if
            callee.Proc.iparams <> nargs
            || callee.Proc.fparams <> nfas
            || callee.Proc.returns <> Proc.Returns_int
          then
            Interp.trap "indirect call signature mismatch on %s"
              callee.Proc.name;
          do_call st cprocs rets ~callee_idx ~fr ~args_a ~fas_a ~ret)
  | I.Hwread (rd, k) ->
      Some
        (fun fr ->
          Machine.fetch mach ~addr;
          fr.iregs.(rd) <- Counters.read_pic counters k)
  | I.Hwzero ->
      Some
        (fun _ ->
          Machine.fetch mach ~addr;
          Counters.zero_pics counters)
  | I.Hwwrite (rs, k) ->
      Some
        (fun fr ->
          Machine.fetch mach ~addr;
          Counters.write_pic counters k fr.iregs.(rs))
  | I.Prof op ->
      Some
        (fun fr ->
          Machine.fetch mach ~addr;
          Interp.dispatch_prof st ~proc:pname ~op_addr:addr ~fp:fr.fp
            ~iregs:fr.iregs op)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Batched tier.                                                       *)

(* Register accesses in batched semantic closures skip the bounds check:
   a [Proc.t] names only registers in [0 .. niregs-1] and
   [0 .. nfregs-1] (its counts are derived from a private copy of the
   code, and {!Pp_ir.Proc.make} rejects an index below zero or too large
   for an array, so the count cannot overflow), {!add_frame} allocates
   exactly that many, and [dyn] slots are in range by construction. *)
let[@inline always] uget (a : int array) i = Array.unsafe_get a i
let[@inline always] uset (a : int array) i v = Array.unsafe_set a i v
let[@inline always] fget (a : float array) i = Array.unsafe_get a i
let[@inline always] fset (a : float array) i v = Array.unsafe_set a i v

(* Semantic closure of one batchable instruction: pure register/memory
   work, no machine events (those are applied by the segment's flush
   from its plan).  [dyn]/[slot] carry runtime load/store
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
      let disp = Pp_ir.Layout.linkage_bytes + off in
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
      Machine.fp_issue mach ~cls:(Interp.fp_class op) ~dst:fd ~s1:fs1 ~s2:fs2
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

(* A maximal run of batchable instructions, compiled for batched
   execution: [flush] applies its machine events after its semantic
   closures have run (see {!Machine.plan}).  [replay upto] reports the
   machine events of instructions [0..upto] individually, after a trap
   at [upto]. *)
type segment = {
  body : frame -> unit;
  dyn : int array;
  flush : Machine.plan;
  replay : int -> unit;
}

(* Batch a run of instructions holding no observer.  Indices are local
   to the run: [trap_ix] and [dyn] slots start at 0.  Loads take the low
   [dyn] slots in program order and stores the slots after them, so each
   group of the plan reads its loads as one contiguous range. *)
let batch_segment st (code : I.t array) (addrs : int array) =
  let mach = Interp.machine st in
  let n = Array.length code in
  let count p = Array.fold_left (fun c i -> if p i then c + 1 else c) 0 code in
  let nloads = count (function I.Load _ | I.Fload _ -> true | _ -> false) in
  let nstores = count (function I.Store _ | I.Fstore _ -> true | _ -> false) in
  let dyn = Array.make (max (nloads + nstores) 1) 0 in
  let slots = Array.make (max n 1) (-1) in
  let next_load = ref 0 and next_store = ref nloads in
  let take r =
    let s = !r in
    incr r;
    s
  in
  let ops_rev = ref [] in
  let emit op = ops_rev := op :: !ops_rev in
  let sems =
    Array.mapi
      (fun k instr ->
        emit (Machine.Bfetch addrs.(k));
        let slot =
          match instr with
          | I.Load _ | I.Fload _ -> take next_load
          | I.Store _ | I.Fstore _ -> take next_store
          | _ -> -1
        in
        slots.(k) <- slot;
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
  let replay upto =
    for j = 0 to upto do
      Machine.fetch mach ~addr:addrs.(j);
      replay_instr mach ~dyn ~slots ~faulting:(j = upto) j code.(j)
    done
  in
  {
    body = fuse sems;
    dyn;
    flush = Machine.plan mach (List.rev !ops_rev);
    replay;
  }

(* A segment as one closure: semantics (replaying the completed prefix's
   events on a trap), then its event flush. *)
let segment_step mach { body; dyn; flush; replay } : frame -> unit =
  match flush with
  | Machine.Bulk { fetches; leaders; nloads } ->
      fun fr ->
        (try body fr
         with e ->
           replay fr.trap_ix;
           raise e);
        Machine.block_bulk mach ~fetches ~leaders ~dyn ~nloads
  | Machine.Ordered o ->
      fun fr ->
        (try body fr
         with e ->
           replay fr.trap_ix;
           raise e);
        Machine.block_ordered mach o ~dyn

(* ------------------------------------------------------------------ *)
(* Block compilation.                                                  *)

let compile_block st (cprocs : cproc array) rets (cp : cproc) label =
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
  (* Per-block fixed costs, pre-resolved: the hook flags are polled as
     captured-record field reads, and the budget check is one array read
     against the live totals.  An entry hook runs
     through the block's own [Interp.entry], where the block probe is
     staged.  When an epilogue hook is active or the budget is exhausted,
     [Interp.block_epilogue] runs in full — including the trap with the
     interpreter's exact message. *)
  let h = Interp.hot st in
  let entry = image.Interp.entries.(label) in
  let tot = Counters.raw_totals (Machine.counters mach) in
  let ix_insts = Counters.ix Pp_machine.Event.Instructions in
  let maxi = Interp.max_instructions st in
  let term_step : frame -> int =
    match term with
    | Block.Jmp l -> fun fr -> (Array.unsafe_get blocks l) fr
    | Block.Br (r, tl, fl) ->
        fun fr ->
          let taken = fr.iregs.(r) <> 0 in
          Machine.branch mach ~addr:taddr ~taken;
          if taken then (Array.unsafe_get blocks tl) fr
          else (Array.unsafe_get blocks fl) fr
    | Block.Ret Block.Ret_void -> fun _ -> ret_void
    | Block.Ret (Block.Ret_int r) ->
        fun fr ->
          rets.ri <- fr.iregs.(r);
          ret_int
    | Block.Ret (Block.Ret_float f) ->
        fun fr ->
          Machine.fp_use mach ~src:f;
          Array.unsafe_set rets.rf 0 fr.fregs.(f);
          ret_float
  in
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
  let observers =
    Array.mapi
      (fun k instr ->
        precise_step st cprocs rets ~pname ~addr:addrs.(k) instr)
      code
  in
  if Array.exists Option.is_some observers then begin
    (* Observers split the block into segments.  Each segment flushes its
       events before the next observer runs precisely, so PICs, counter
       totals and the clock are current when it reads them. *)
    let pieces = ref [] and lo = ref 0 in
    let close_segment hi =
      if hi > !lo then
        pieces :=
          segment_step mach
            (batch_segment st
               (Array.sub code !lo (hi - !lo))
               (Array.sub addrs !lo (hi - !lo)))
          :: !pieces
    in
    Array.iteri
      (fun k -> function
        | None -> ()
        | Some step ->
            close_segment k;
            pieces := step :: !pieces;
            lo := k + 1)
      observers;
    close_segment n;
    let body = fuse (Array.of_list (List.rev !pieces)) in
    fun fr ->
      if h.Interp.hooks then
        Interp.block_entered entry ~fp:fr.fp ~iregs:fr.iregs;
      body fr;
      if h.Interp.epilogue || Array.unsafe_get tot ix_insts > maxi then
        Interp.block_epilogue st;
      Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
      term_step fr
  end
  else
    (* A block without observers is one segment, flushed inline. *)
    let { body; dyn; flush; replay } = batch_segment st code addrs in
    match flush with
    | Machine.Bulk _ when n = 0 ->
        fun fr ->
          if h.Interp.hooks then
            Interp.block_entered entry ~fp:fr.fp ~iregs:fr.iregs;
          if h.Interp.epilogue || Array.unsafe_get tot ix_insts > maxi then
            Interp.block_epilogue st;
          Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
          term_step fr
    | Machine.Bulk { fetches; leaders; nloads } ->
        fun fr ->
          if h.Interp.hooks then
            Interp.block_entered entry ~fp:fr.fp ~iregs:fr.iregs;
          (try body fr
           with e ->
             replay fr.trap_ix;
             raise e);
          Machine.block_bulk mach ~fetches ~leaders ~dyn ~nloads;
          if h.Interp.epilogue || Array.unsafe_get tot ix_insts > maxi then
            Interp.block_epilogue st;
          Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
          term_step fr
    | Machine.Ordered o ->
        fun fr ->
          if h.Interp.hooks then
            Interp.block_entered entry ~fp:fr.fp ~iregs:fr.iregs;
          (try body fr
           with e ->
             replay fr.trap_ix;
             raise e);
          Machine.block_ordered mach o ~dyn;
          if h.Interp.epilogue || Array.unsafe_get tot ix_insts > maxi then
            Interp.block_epilogue st;
          Machine.fetch_term mach ~addr:taddr ~probe:term_probe;
          term_step fr

let compile_proc st cprocs rets (cp : cproc) =
  let nb = Array.length cp.image.Interp.code in
  cp.blocks <-
    Array.make (max nb 1) (fun _ ->
        Interp.trap "compiled block invoked before compilation");
  for label = 0 to nb - 1 do
    cp.blocks.(label) <- compile_block st cprocs rets cp label
  done

let create st =
  let cprocs =
    Array.map
      (fun image ->
        { image; blocks = [||]; pool = [||]; nframes = 0; depth = 0 })
      (Interp.images st)
  in
  let rets = { ri = 0; rf = [| 0.0 |] } in
  Array.iter (fun cp -> compile_proc st cprocs rets cp) cprocs;
  { st; cprocs }

let run t =
  let st = t.st in
  (* A trap leaves every depth it unwound through raised. *)
  Array.iter (fun cp -> cp.depth <- 0) t.cprocs;
  Interp.start_run st;
  let k =
    call_proc_from st t.cprocs.(Interp.main_index st) ~caller:no_frame
      ~args_a:[||] ~fas_a:[||]
  in
  if k <> ret_void then Interp.trap "main returned a value";
  Interp.collect_result st
