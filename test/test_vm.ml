(* Tests of the VM layer below MiniC: memory faults, the profiling
   runtime's bookkeeping and its cost model. *)

module Memory = Pp_vm.Memory
module Runtime = Pp_vm.Runtime
module Machine = Pp_machine.Machine
module Counters = Pp_machine.Counters
module Event = Pp_machine.Event
module Cct = Pp_core.Cct

let check = Alcotest.check

let test_memory_rw () =
  let m = Memory.create [ ("data", 0x1000, 0x1000) ] in
  Memory.write_int m 0x1000 42;
  check Alcotest.int "int roundtrip" 42 (Memory.read_int m 0x1000);
  Memory.write_int m 0x1008 (-7);
  check Alcotest.int "negative" (-7) (Memory.read_int m 0x1008);
  Memory.write_float m 0x1010 3.25;
  Alcotest.(check (float 0.0)) "float exact" 3.25 (Memory.read_float m 0x1010);
  (* NaN and infinities round-trip bit-exactly. *)
  Memory.write_float m 0x1018 Float.infinity;
  Alcotest.(check bool) "inf" true
    (Memory.read_float m 0x1018 = Float.infinity);
  (* Fresh memory is zero. *)
  check Alcotest.int "zero fill" 0 (Memory.read_int m 0x1ff8)

let test_memory_faults () =
  let m = Memory.create [ ("data", 0x1000, 0x100) ] in
  let faults f = match f () with
    | exception Memory.Fault _ -> ()
    | _ -> Alcotest.fail "expected fault"
  in
  faults (fun () -> Memory.read_int m 0x0800);
  faults (fun () -> Memory.read_int m 0x1100);
  faults (fun () -> Memory.read_int m 0x1004);
  (* misaligned *)
  faults (fun () -> Memory.write_int m 0x2000 1);
  Memory.write_int m 0x1008 7;
  Alcotest.(check int) "mapped and aligned" 7 (Memory.read_int m 0x1008)

let test_memory_segments_disjoint () =
  match Memory.create [ ("a", 0x0, 0x100); ("b", 0x80, 0x100) ] with
  | exception Memory.Fault _ -> ()
  | _ -> Alcotest.fail "expected overlap rejection"

let make_runtime () =
  let machine = Machine.create Pp_machine.Config.default in
  let memory = Memory.create [ ("stack", 0x1000, 0x1000) ] in
  (machine, Runtime.create ~machine ~memory ~prof_base:0x800_0000 ())

let test_runtime_cct_protocol () =
  let _, rt = make_runtime () in
  (* main entered with no pending gCSP (root slot 0). *)
  Runtime.cct_enter rt ~proc_name:"main" ~nsites:2 ~op_addr:0x4000_0000
    ~fp:0x1800;
  Runtime.cct_call rt ~site:1 ~indirect:false ~op_addr:0x4000_0040;
  Runtime.cct_enter rt ~proc_name:"leaf" ~nsites:0 ~op_addr:0x4000_0080
    ~fp:0x1700;
  let cct = Runtime.cct rt in
  Alcotest.(check string) "current" "leaf" (Cct.proc (Cct.current cct));
  Runtime.cct_exit rt ~op_addr:0x4000_00c0 ~fp:0x1700;
  Alcotest.(check string) "back in main" "main" (Cct.proc (Cct.current cct));
  (* Re-entering the same site reuses the record. *)
  Runtime.cct_call rt ~site:1 ~indirect:false ~op_addr:0x4000_0040;
  Runtime.cct_enter rt ~proc_name:"leaf" ~nsites:0 ~op_addr:0x4000_0080
    ~fp:0x1700;
  check Alcotest.int "records: root, main, leaf" 3 (Cct.num_nodes cct);
  let leaf = Cct.current cct in
  check Alcotest.int "leaf entered twice" 2
    (Cct.data leaf).Runtime.metrics.(0)

let test_runtime_costs_charged () =
  let machine, rt = make_runtime () in
  let insts () =
    Counters.total (Machine.counters machine) Event.Instructions
  in
  let before = insts () in
  Runtime.cct_enter rt ~proc_name:"main" ~nsites:1 ~op_addr:0x4000_0000
    ~fp:0x1800;
  Alcotest.(check bool) "enter charges instructions" true (insts () > before);
  (* A slot hit is cheaper than the allocating first call. *)
  Runtime.cct_call rt ~site:0 ~indirect:false ~op_addr:0x4000_0040;
  let a = insts () in
  Runtime.cct_enter rt ~proc_name:"f" ~nsites:1 ~op_addr:0x4000_0080
    ~fp:0x1700;
  let first_cost = insts () - a in
  Runtime.cct_exit rt ~op_addr:0x4000_00c0 ~fp:0x1700;
  Runtime.cct_call rt ~site:0 ~indirect:false ~op_addr:0x4000_0040;
  let b = insts () in
  Runtime.cct_enter rt ~proc_name:"f" ~nsites:1 ~op_addr:0x4000_0080
    ~fp:0x1700;
  let second_cost = insts () - b in
  Alcotest.(check bool)
    (Printf.sprintf "slot hit (%d) cheaper than allocation (%d)" second_cost
       first_cost)
    true
    (second_cost < first_cost)

let test_runtime_hash_tables () =
  let _, rt = make_runtime () in
  Runtime.register_hash_table rt ~table:0 ~proc:"p";
  Runtime.path_commit_hash rt ~table:0 ~key:5 ~hw:false ~op_addr:0x4000_0000;
  Runtime.path_commit_hash rt ~table:0 ~key:5 ~hw:false ~op_addr:0x4000_0000;
  Runtime.path_commit_hash rt ~table:0 ~key:9 ~hw:false ~op_addr:0x4000_0000;
  let counts =
    Runtime.hash_table_counts rt ~table:0 |> List.sort compare
  in
  match counts with
  | [ (5, c5); (9, c9) ] ->
      check Alcotest.int "key 5" 2 c5.Runtime.freq;
      check Alcotest.int "key 9" 1 c9.Runtime.freq
  | _ -> Alcotest.fail "unexpected table contents"

let test_runtime_hash_hw_zeroes_pics () =
  let machine, rt = make_runtime () in
  let counters = Machine.counters machine in
  Counters.select counters ~pic0:Event.Instructions ~pic1:Event.Cycles;
  Runtime.register_hash_table rt ~table:0 ~proc:"p";
  (* Accrue some events, commit with hw, and check the PICs were re-armed
     (the commit itself then accrues a little). *)
  Runtime.path_commit_hash rt ~table:0 ~key:1 ~hw:true ~op_addr:0x4000_0000;
  let after_commit = Counters.read_pic counters 0 in
  Alcotest.(check bool) "pics re-zeroed by hw commit" true (after_commit = 0);
  match Runtime.hash_table_counts rt ~table:0 with
  | [ (1, c) ] ->
      Alcotest.(check bool) "metric captured" true (c.Runtime.m0 > 0)
  | _ -> Alcotest.fail "missing entry"

let test_runtime_prof_bytes_grow () =
  let _, rt = make_runtime () in
  let b0 = Runtime.prof_bytes_allocated rt in
  Runtime.cct_enter rt ~proc_name:"main" ~nsites:8 ~op_addr:0x4000_0000
    ~fp:0x1800;
  Alcotest.(check bool) "allocation accounted" true
    (Runtime.prof_bytes_allocated rt > b0)

(* Each stub charges the machine's instruction counter exactly the fixed
   count Pp_ir.Instr states for it: its whole footprint. *)
let test_cost_model_consistency () =
  let module I = Pp_ir.Instr in
  let machine, rt = make_runtime () in
  let op_addr = 0x4000_0000 and fp = 0x1800 in
  Runtime.register_hash_table rt ~table:0 ~proc:"main";
  Runtime.register_cct_table rt ~table:1 ~proc:"main" ~npaths:4;
  Runtime.cct_enter rt ~proc_name:"main" ~nsites:1 ~op_addr ~fp;
  List.iter
    (fun (what, op, stub) ->
      let insts () =
        Counters.total (Machine.counters machine) Event.Instructions
      in
      let before = insts () in
      stub ();
      check Alcotest.int (what ^ " charges its footprint")
        (I.slots (I.Prof op))
        (insts () - before))
    [
      ( "cct_call",
        I.Cct_call { site = 0; indirect = false },
        fun () -> Runtime.cct_call rt ~site:0 ~indirect:false ~op_addr );
      ( "cct_metric_enter",
        I.Cct_metric_enter,
        fun () -> Runtime.cct_metric_enter rt ~op_addr ~fp );
      ( "cct_metric_backedge",
        I.Cct_metric_backedge,
        fun () -> Runtime.cct_metric_backedge rt ~op_addr ~fp );
      ( "cct_metric_exit",
        I.Cct_metric_exit,
        fun () -> Runtime.cct_metric_exit rt ~op_addr ~fp );
      ( "path_commit_hash",
        I.Path_commit_hash { table = 0; path_reg = 0 },
        fun () ->
          Runtime.path_commit_hash rt ~table:0 ~key:1 ~hw:false ~op_addr );
      ( "path_commit_hash_hw",
        I.Path_commit_hash_hw { table = 0; path_reg = 0 },
        fun () ->
          Runtime.path_commit_hash rt ~table:0 ~key:1 ~hw:true ~op_addr );
      ( "path_commit_cct",
        I.Path_commit_cct { table = 1; path_reg = 0 },
        fun () -> Runtime.path_commit_cct rt ~table:1 ~key:1 ~op_addr );
      ("cct_exit", I.Cct_exit, fun () -> Runtime.cct_exit rt ~op_addr ~fp);
    ]

(* Cct_enter charges its base count on a slot hit; a fresh record first
   walks every ancestor up to the root. *)
let test_cct_enter_footprint () =
  let module I = Pp_ir.Instr in
  let machine, rt = make_runtime () in
  let op_addr = 0x4000_0000 and fp = 0x1800 in
  let enter_cost proc =
    let insts () =
      Counters.total (Machine.counters machine) Event.Instructions
    in
    let before = insts () in
    Runtime.cct_enter rt ~proc_name:proc ~nsites:1 ~op_addr ~fp;
    insts () - before
  in
  check Alcotest.int "fresh main walks the root"
    (I.cct_enter_base + I.cct_enter_per_ancestor)
    (enter_cost "main");
  Runtime.cct_call rt ~site:0 ~indirect:false ~op_addr;
  check Alcotest.int "fresh f walks main and the root"
    (I.cct_enter_base + (2 * I.cct_enter_per_ancestor))
    (enter_cost "f");
  Runtime.cct_exit rt ~op_addr ~fp;
  Runtime.cct_call rt ~site:0 ~indirect:false ~op_addr;
  check Alcotest.int "slot hit charges the base" I.cct_enter_base
    (enter_cost "f")

let suite =
  [
    Alcotest.test_case "memory read/write" `Quick test_memory_rw;
    Alcotest.test_case "memory faults" `Quick test_memory_faults;
    Alcotest.test_case "segments must be disjoint" `Quick
      test_memory_segments_disjoint;
    Alcotest.test_case "runtime CCT protocol" `Quick test_runtime_cct_protocol;
    Alcotest.test_case "runtime charges costs" `Quick
      test_runtime_costs_charged;
    Alcotest.test_case "runtime hash tables" `Quick test_runtime_hash_tables;
    Alcotest.test_case "hw hash commit re-arms PICs" `Quick
      test_runtime_hash_hw_zeroes_pics;
    Alcotest.test_case "profiling bytes accounted" `Quick
      test_runtime_prof_bytes_grow;
    Alcotest.test_case "cost model matches footprints" `Quick
      test_cost_model_consistency;
    Alcotest.test_case "cct_enter footprint: slot hit and fresh record"
      `Quick test_cct_enter_footprint;
  ]
