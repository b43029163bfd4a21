module I = Pp_ir.Instr
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Program = Pp_ir.Program
module Layout = Pp_ir.Layout
module Machine = Pp_machine.Machine
module Counters = Pp_machine.Counters
module Event = Pp_machine.Event
module Fp_unit = Pp_machine.Fp_unit

exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

type output_item = Oint of int | Ofloat of float

type result = {
  counters : (Event.t * int) list;
  output : output_item list;
  cycles : int;
  instructions : int;
}

(* A block's entry hook: the block probe staged for this block.  [fire]
   is a no-op until a probe is installed, then a stub that stages the
   probe on the block's first entry and replaces itself with the staged
   closure. *)
type entry = {
  eproc : string;
  elabel : int;
  mutable fire : frame:int -> iregs:int array -> unit;
}

(* Per-procedure execution image: instruction arrays (lists are too slow to
   index), instruction addresses per slot, and the terminator address. *)
type image = {
  proc : Proc.t;
  code : I.t array array;  (* per block *)
  addrs : int array array;  (* per block, per instruction index *)
  term_addr : int array;  (* per block *)
  frame_bytes : int;  (* linkage area + local arrays *)
  nregs_i : int;  (* register file lengths, at least 1, fixed per proc *)
  nregs_f : int;
  entries : entry array;  (* per block *)
}

(* State the compiled tier polls once per block: [hooks] covers the
   block-entry hook (the block probe), [epilogue] the block-end
   ones (stack sampling, telemetry).  Compiled closures capture this
   record and skip the hook calls while a flag is false; every hook
   setter refreshes both. *)
type hot = { mutable hooks : bool; mutable epilogue : bool }

type t = {
  layout : Layout.t;
  machine : Machine.t;
  memory : Memory.t;
  runtime : Runtime.t;
  images : image array;
  index_of : (string, int) Hashtbl.t;
  index_of_addr : (int, int) Hashtbl.t;
  main_index : int;
  max_instructions : int;
  mutable sp : int;
  mutable output_rev : output_item list;
  (* Stack sampling (7.2 comparison): the live activations' procedure
     names, outermost first, in [call_stack.(0 .. call_depth - 1)]. *)
  mutable call_stack : string array;
  mutable call_depth : int;
  mutable sample_interval : int;  (* 0 = off *)
  mutable next_sample : int;
  samples : (string list, int ref) Hashtbl.t;
  (* Block-entry ring buffer for post-mortem diagnostics. *)
  (* Self-telemetry: periodic counter samples into a trace sink. *)
  mutable telemetry : Pp_telemetry.Trace.t;
  mutable tl_interval : int;  (* simulated cycles; 0 = off *)
  mutable tl_next : int;
  (* Whether a block probe is installed (staged in [image.entries]). *)
  mutable probed : bool;
  (* Sampled instrumentation: gates the path-commit pseudo-ops in
     [exec_prof], which both engines dispatch through. *)
  mutable sampling : Sampling.t option;
  hot : hot;
}

let no_probe ~frame:_ ~iregs:_ = ()

let build_image layout (p : Proc.t) =
  let nb = Proc.num_blocks p in
  let code = Array.make nb [||] in
  let addrs = Array.make nb [||] in
  let term_addr = Array.make nb 0 in
  Array.iter
    (fun (b : Block.t) ->
      let instrs = Array.of_list b.instrs in
      code.(b.label) <- instrs;
      let n = Array.length instrs in
      addrs.(b.label) <-
        Array.init n (fun i ->
            Layout.instr_addr layout ~proc:p.name ~label:b.label ~index:i);
      term_addr.(b.label) <-
        Layout.instr_addr layout ~proc:p.name ~label:b.label ~index:n)
    p.blocks;
  {
    proc = p;
    code;
    addrs;
    term_addr;
    frame_bytes = Layout.linkage_bytes + (p.frame_words * Layout.word);
    nregs_i = Int.max p.niregs 1;
    nregs_f = Int.max p.nfregs 1;
    entries =
      Array.init nb (fun elabel ->
          { eproc = p.name; elabel; fire = no_probe });
  }

let create ?(config = Pp_machine.Config.default)
    ?(max_instructions = 2_000_000_000) ?(merge_call_sites = false) prog =
  let layout = Layout.build prog in
  let machine = Machine.create config in
  (* Data segment covers the globals (table arrays included) with slack. *)
  let data_size =
    let need = Layout.data_end layout - Layout.data_base in
    (need + 4096 + 7) land lnot 7
  in
  let memory =
    Memory.create
      [
        ("data", Layout.data_base, data_size);
        ("stack", Layout.stack_limit, Layout.stack_base - Layout.stack_limit);
      ]
  in
  (* Initialise globals. *)
  Array.iter
    (fun (g : Program.global) ->
      let base = Layout.global_addr layout g.gname in
      match g.init with
      | None -> ()
      | Some (Program.Init_ints a) ->
          Array.iteri (fun i v -> Memory.write_int memory (base + (8 * i)) v) a
      | Some (Program.Init_floats a) ->
          Array.iteri
            (fun i v -> Memory.write_float memory (base + (8 * i)) v)
            a)
    prog.globals;
  let runtime =
    Runtime.create ~merge_call_sites ~machine ~memory
      ~prof_base:Layout.prof_base ()
  in
  let images = Array.map (build_image layout) prog.procs in
  let index_of = Hashtbl.create 32 in
  let index_of_addr = Hashtbl.create 32 in
  Array.iteri
    (fun i (p : Proc.t) ->
      Hashtbl.replace index_of p.name i;
      Hashtbl.replace index_of_addr (Layout.proc_addr layout p.name) i)
    prog.procs;
  let main_index =
    match Hashtbl.find_opt index_of prog.main with
    | Some i -> i
    | None -> invalid_arg "Interp.create: no main"
  in
  {
    layout;
    machine;
    memory;
    runtime;
    images;
    index_of;
    index_of_addr;
    main_index;
    max_instructions;
    sp = Layout.stack_base;
    output_rev = [];
    call_stack = Array.make 16 "";
    call_depth = 0;
    sample_interval = 0;
    next_sample = 0;
    samples = Hashtbl.create 64;
    telemetry = Pp_telemetry.Trace.null;
    tl_interval = 0;
    tl_next = 0;
    probed = false;
    sampling = None;
    hot = { hooks = false; epilogue = false };
  }

let refresh_hot t =
  t.hot.hooks <- t.probed;
  t.hot.epilogue <- t.sample_interval > 0 || t.tl_interval > 0

let set_block_probe t probe =
  Array.iter
    (fun image ->
      Array.iter
        (fun e ->
          e.fire <-
            (fun ~frame ~iregs ->
              let staged = probe ~proc:e.eproc ~label:e.elabel in
              e.fire <- staged;
              staged ~frame ~iregs))
        image.entries)
    t.images;
  t.probed <- true;
  refresh_hot t

(* No [refresh_hot]: the gate sits inside [exec_prof], not in the
   per-block hooks, so the compiled tier needs no extra polling. *)
let set_sampling t s = t.sampling <- Some s

let enable_sampling t ~interval =
  if interval <= 0 then invalid_arg "Interp.enable_sampling: interval <= 0";
  t.sample_interval <- interval;
  t.next_sample <- Machine.now t.machine + interval;
  refresh_hot t

let samples t =
  Hashtbl.fold (fun k v acc -> (List.rev k, !v) :: acc) t.samples []
  |> List.sort compare

(* The sampled stack as a bucket key, innermost first: built only when a
   sample is taken. *)
let stack_key t =
  let rec build i acc =
    if i = t.call_depth then acc else build (i + 1) (t.call_stack.(i) :: acc)
  in
  build 0 []

let take_samples t =
  while t.sample_interval > 0 && Machine.now t.machine >= t.next_sample do
    let key = stack_key t in
    (match Hashtbl.find_opt t.samples key with
    | Some r -> incr r
    | None -> Hashtbl.replace t.samples key (ref 1));
    t.next_sample <- t.next_sample + t.sample_interval
  done

let push_activation t name =
  let d = t.call_depth in
  if d = Array.length t.call_stack then begin
    let grown = Array.make (2 * d) "" in
    Array.blit t.call_stack 0 grown 0 d;
    t.call_stack <- grown
  end;
  Array.unsafe_set t.call_stack d name;
  t.call_depth <- d + 1

let pop_activation t = if t.call_depth > 0 then t.call_depth <- t.call_depth - 1

let set_telemetry t ~trace ~interval =
  if interval <= 0 then invalid_arg "Interp.set_telemetry: interval <= 0";
  t.telemetry <- trace;
  t.tl_interval <- interval;
  t.tl_next <- Machine.now t.machine + interval;
  refresh_hot t

let take_telemetry t =
  let now = Machine.now t.machine in
  if now >= t.tl_next then begin
    let counters = Machine.counters t.machine in
    let pic0, pic1 = Counters.selection counters in
    Pp_telemetry.Trace.counter t.telemetry "vm"
      [
        ("cycles", now);
        ("instructions", Counters.total counters Event.Instructions);
        (Event.name pic0, Counters.total counters pic0);
        (Event.name pic1, Counters.total counters pic1);
      ];
    t.tl_next <- now + t.tl_interval
  end

let select_pics t ~pic0 ~pic1 =
  Counters.select (Machine.counters t.machine) ~pic0 ~pic1

let machine t = t.machine
let memory t = t.memory
let runtime t = t.runtime
let layout t = t.layout

type ret_value = Vint of int | Vfloat of float | Vvoid

let shift_mask = 63

let exec_ibinop op a b =
  match op with
  | I.Add -> a + b
  | I.Sub -> a - b
  | I.Mul -> a * b
  | I.Div -> if b = 0 then trap "integer division by zero" else a / b
  | I.Rem -> if b = 0 then trap "integer remainder by zero" else a mod b
  | I.And -> a land b
  | I.Or -> a lor b
  | I.Xor -> a lxor b
  | I.Shl -> a lsl (b land shift_mask)
  | I.Shr -> a asr (b land shift_mask)

let exec_icmp c a b =
  let r =
    match c with
    | I.Eq -> a = b
    | I.Ne -> a <> b
    | I.Lt -> a < b
    | I.Le -> a <= b
    | I.Gt -> a > b
    | I.Ge -> a >= b
  in
  if r then 1 else 0

let exec_fcmp c (a : float) (b : float) =
  let r =
    match c with
    | I.Eq -> a = b
    | I.Ne -> a <> b
    | I.Lt -> a < b
    | I.Le -> a <= b
    | I.Gt -> a > b
    | I.Ge -> a >= b
  in
  if r then 1 else 0

let fp_class = function
  | I.Fadd | I.Fsub -> Fp_unit.Fp_add
  | I.Fmul -> Fp_unit.Fp_mul
  | I.Fdiv -> Fp_unit.Fp_div

let exec_fbinop op (a : float) (b : float) =
  match op with
  | I.Fadd -> a +. b
  | I.Fsub -> a -. b
  | I.Fmul -> a *. b
  | I.Fdiv -> a /. b

let check_budget t =
  if
    Counters.total (Machine.counters t.machine) Event.Instructions
    > t.max_instructions
  then trap "instruction budget exhausted (%d)" t.max_instructions

let block_entered e ~fp ~iregs =
  e.fire ~frame:(fp + Layout.linkage_bytes) ~iregs

(* Execute one procedure activation; returns its value. *)
let rec exec_proc t image ~iargs ~fargs =
  let p = image.proc in
  let iregs = Array.make image.nregs_i 0 in
  let fregs = Array.make image.nregs_f 0.0 in
  List.iteri (fun i v -> iregs.(i) <- v) iargs;
  List.iteri (fun i v -> fregs.(i) <- v) fargs;
  let fp = t.sp - image.frame_bytes in
  if fp < Layout.stack_limit then trap "stack overflow in %s" p.Proc.name;
  let saved_sp = t.sp in
  t.sp <- fp;
  push_activation t p.Proc.name;
  Machine.fp_frame t.machine ~nregs:image.nregs_f;
  let mach = t.machine in
  let rec run_block label =
    if t.hot.hooks then block_entered image.entries.(label) ~fp ~iregs;
    let code = image.code.(label) in
    let addrs = image.addrs.(label) in
    let n = Array.length code in
    for idx = 0 to n - 1 do
      let addr = addrs.(idx) in
      Machine.fetch mach ~addr;
      exec_instr t image iregs fregs fp addr code.(idx)
    done;
    check_budget t;
    if t.sample_interval > 0 then take_samples t;
    if t.tl_interval > 0 then take_telemetry t;
    let taddr = image.term_addr.(label) in
    Machine.fetch mach ~addr:taddr;
    match (Proc.block p label).term with
    | Block.Jmp l -> run_block l
    | Block.Br (r, tl, fl) ->
        let taken = iregs.(r) <> 0 in
        Machine.branch mach ~addr:taddr ~taken;
        run_block (if taken then tl else fl)
    | Block.Ret Block.Ret_void -> Vvoid
    | Block.Ret (Block.Ret_int r) -> Vint iregs.(r)
    | Block.Ret (Block.Ret_float f) ->
        Machine.fp_use mach ~src:f;
        Vfloat fregs.(f)
  in
  let v = run_block p.Proc.entry in
  t.sp <- saved_sp;
  pop_activation t;
  v

and exec_instr t image iregs fregs fp addr instr =
  let mach = t.machine in
  let counters = Machine.counters mach in
  match instr with
  | I.Iconst (rd, n) -> iregs.(rd) <- n
  | I.Iconst_sym (rd, sym) -> (
      match Layout.resolve t.layout sym with
      | a -> iregs.(rd) <- a
      | exception Not_found -> trap "unresolved symbol %s" sym)
  | I.Fconst (fd, x) ->
      fregs.(fd) <- x;
      Machine.fp_define mach ~dst:fd
  | I.Imov (rd, rs) -> iregs.(rd) <- iregs.(rs)
  | I.Fmov (fd, fs) ->
      Machine.fp_use mach ~src:fs;
      fregs.(fd) <- fregs.(fs);
      Machine.fp_define mach ~dst:fd
  | I.Ibinop (op, rd, rs1, rs2) ->
      iregs.(rd) <- exec_ibinop op iregs.(rs1) iregs.(rs2)
  | I.Ibinop_imm (op, rd, rs, imm) ->
      iregs.(rd) <- exec_ibinop op iregs.(rs) imm
  | I.Icmp (c, rd, rs1, rs2) ->
      iregs.(rd) <- exec_icmp c iregs.(rs1) iregs.(rs2)
  | I.Icmp_imm (c, rd, rs, imm) ->
      iregs.(rd) <- exec_icmp c iregs.(rs) imm
  | I.Fbinop (op, fd, fs1, fs2) ->
      Machine.fp_issue mach ~cls:(fp_class op) ~dst:fd ~s1:fs1 ~s2:fs2;
      fregs.(fd) <- exec_fbinop op fregs.(fs1) fregs.(fs2)
  | I.Fcmp (c, rd, fs1, fs2) ->
      Machine.fp_use mach ~src:fs1;
      Machine.fp_use mach ~src:fs2;
      iregs.(rd) <- exec_fcmp c fregs.(fs1) fregs.(fs2)
  | I.Itof (fd, rs) ->
      fregs.(fd) <- float_of_int iregs.(rs);
      Machine.fp_define mach ~dst:fd
  | I.Ftoi (rd, fs) ->
      Machine.fp_use mach ~src:fs;
      let x = fregs.(fs) in
      if Float.is_nan x || Float.abs x >= 4.6e18 then
        trap "float-to-int out of range (%g)" x;
      iregs.(rd) <- int_of_float x
  | I.Load (rd, rb, off) ->
      let a = iregs.(rb) + off in
      Machine.load mach ~addr:a;
      (try iregs.(rd) <- Memory.read_int t.memory a
       with Memory.Fault m -> trap "load: %s" m)
  | I.Store (rs, rb, off) ->
      let a = iregs.(rb) + off in
      Machine.store mach ~addr:a;
      (try Memory.write_int t.memory a iregs.(rs)
       with Memory.Fault m -> trap "store: %s" m)
  | I.Fload (fd, rb, off) ->
      let a = iregs.(rb) + off in
      Machine.load mach ~addr:a;
      (try fregs.(fd) <- Memory.read_float t.memory a
       with Memory.Fault m -> trap "load: %s" m);
      Machine.fp_define mach ~dst:fd
  | I.Fstore (fs, rb, off) ->
      Machine.fp_use mach ~src:fs;
      let a = iregs.(rb) + off in
      Machine.store mach ~addr:a;
      (try Memory.write_float t.memory a fregs.(fs)
       with Memory.Fault m -> trap "store: %s" m)
  | I.Call { callee; args; fargs = fas; ret; _ } ->
      let callee_idx =
        match Hashtbl.find_opt t.index_of callee with
        | Some i -> i
        | None -> trap "call to unknown procedure %s" callee
      in
      do_call t image iregs fregs ~callee_idx ~args ~fas ~ret
  | I.Callind { target; args; fargs = fas; ret; _ } ->
      let a = iregs.(target) in
      let callee_idx =
        match Hashtbl.find_opt t.index_of_addr a with
        | Some i -> i
        | None -> trap "indirect call to non-procedure address 0x%x" a
      in
      let callee = t.images.(callee_idx).proc in
      if
        callee.Proc.iparams <> List.length args
        || callee.Proc.fparams <> List.length fas
        || callee.Proc.returns <> Proc.Returns_int
      then
        trap "indirect call signature mismatch on %s" callee.Proc.name;
      do_call t image iregs fregs ~callee_idx ~args ~fas ~ret
  | I.Hwread (rd, k) -> iregs.(rd) <- Counters.read_pic counters k
  | I.Hwzero -> Counters.zero_pics counters
  | I.Hwwrite (rs, k) -> Counters.write_pic counters k iregs.(rs)
  | I.Frameaddr (rd, off) -> iregs.(rd) <- fp + Layout.linkage_bytes + off
  | I.Print_int r -> t.output_rev <- Oint iregs.(r) :: t.output_rev
  | I.Print_float f ->
      Machine.fp_use mach ~src:f;
      t.output_rev <- Ofloat fregs.(f) :: t.output_rev
  | I.Prof op ->
      exec_prof t ~proc_name:image.proc.Proc.name ~op_addr:addr ~fp iregs op

and do_call t _image iregs fregs ~callee_idx ~args ~fas ~ret =
  let callee_image = t.images.(callee_idx) in
  let iargs = List.map (fun r -> iregs.(r)) args in
  let fargs = List.map (fun f -> fregs.(f)) fas in
  (* The callee clears the FP scoreboard; waiting on in-flight FP arguments
     happens here. *)
  List.iter (fun f -> Machine.fp_use t.machine ~src:f) fas;
  let v = exec_proc t callee_image ~iargs ~fargs in
  match (ret, v) with
  | I.Rnone, _ -> ()
  | I.Rint rd, Vint n -> iregs.(rd) <- n
  | I.Rfloat fd, Vfloat x ->
      fregs.(fd) <- x;
      Machine.fp_define t.machine ~dst:fd
  | I.Rint _, (Vfloat _ | Vvoid) | I.Rfloat _, (Vint _ | Vvoid) ->
      trap "call return kind mismatch"

and exec_prof t ~proc_name ~op_addr ~fp iregs op =
  let rt = t.runtime in
  let gated =
    match t.sampling with
    | None -> false
    | Some s -> (
        (* Only table commits gate.  The CCT protocol ops must stay
           paired (enter/exit maintain the shadow stack and the gCSP
           save/restore discipline), so they never gate. *)
        match op with
        | I.Path_commit_hash _ | I.Path_commit_hash_hw _
        | I.Path_commit_cct _ ->
            not (Sampling.decide s ~proc:proc_name)
        | I.Cct_enter _ | I.Cct_exit | I.Cct_call _ | I.Cct_metric_enter
        | I.Cct_metric_exit | I.Cct_metric_backedge ->
            false)
  in
  if gated then (
    match op with
    | I.Path_commit_hash_hw _ ->
        (* A skipped hardware commit still re-anchors the PICs (the real
           patched-out probe would, and it costs no machine events), so
           the counter deltas every later commit reads are identical to
           an exhaustive run's. *)
        Counters.zero_pics (Machine.counters t.machine)
    | _ -> ())
  else
  match op with
  | I.Cct_enter { nsites; _ } ->
      Runtime.cct_enter rt ~proc_name ~nsites ~op_addr ~fp
  | I.Cct_exit -> Runtime.cct_exit rt ~op_addr ~fp
  | I.Cct_call { site; indirect } ->
      Runtime.cct_call rt ~site ~indirect ~op_addr
  | I.Cct_metric_enter -> Runtime.cct_metric_enter rt ~op_addr ~fp
  | I.Cct_metric_exit -> Runtime.cct_metric_exit rt ~op_addr ~fp
  | I.Cct_metric_backedge -> Runtime.cct_metric_backedge rt ~op_addr ~fp
  | I.Path_commit_hash { table; path_reg } ->
      Runtime.path_commit_hash rt ~table ~key:iregs.(path_reg) ~hw:false
        ~op_addr
  | I.Path_commit_hash_hw { table; path_reg } ->
      Runtime.path_commit_hash rt ~table ~key:iregs.(path_reg) ~hw:true
        ~op_addr
  | I.Path_commit_cct { table; path_reg } ->
      Runtime.path_commit_cct rt ~table ~key:iregs.(path_reg) ~op_addr

let collect_result t =
  let counters = Counters.totals (Machine.counters t.machine) in
  {
    counters;
    output = List.rev t.output_rev;
    cycles = Counters.total (Machine.counters t.machine) Event.Cycles;
    instructions =
      Counters.total (Machine.counters t.machine) Event.Instructions;
  }

let start_run t =
  t.sp <- Layout.stack_base;
  t.call_depth <- 0;
  Runtime.reset_activations t.runtime

let run t =
  start_run t;
  let v = exec_proc t t.images.(t.main_index) ~iargs:[] ~fargs:[] in
  (match v with
  | Vvoid -> ()
  | Vint _ | Vfloat _ -> trap "main returned a value");
  collect_result t

(* ------------------------------------------------------------------ *)
(* Engine internals: the shared-state surface Compile executes against.
   Both engines run over the same [t] — same layout, memory, machine,
   runtime, hooks — so a compiled run perturbs and observes exactly what
   an interpreted run does.                                            *)

let images t = t.images
let main_index t = t.main_index
let proc_index t name = Hashtbl.find_opt t.index_of name

let proc_index_of_addr t addr =
  match Hashtbl.find t.index_of_addr addr with
  | i -> i
  | exception Not_found -> -1

let max_instructions t = t.max_instructions
let stack_pointer t = t.sp
let set_stack_pointer t sp = t.sp <- sp
let push_output t item = t.output_rev <- item :: t.output_rev
let hot t = t.hot

let block_epilogue t =
  check_budget t;
  if t.sample_interval > 0 then take_samples t;
  if t.tl_interval > 0 then take_telemetry t

let dispatch_prof t ~proc ~op_addr ~fp ~iregs op =
  exec_prof t ~proc_name:proc ~op_addr ~fp iregs op

let read_table_cells t ~global ~index ~cells =
  let base = Layout.global_addr t.layout global in
  Array.init cells (fun i ->
      Memory.read_int t.memory (base + (8 * ((index * cells) + i))))
