(* Unit tests of the microarchitecture model. *)

open Pp_machine

let check = Alcotest.check

let small_geom =
  { Config.size_bytes = 256; line_bytes = 32; associativity = 1 }

let test_cache_direct_mapped () =
  let c = Cache.create small_geom in
  (* 256B direct-mapped, 32B lines -> 8 sets. *)
  Alcotest.(check bool) "cold miss" false (Cache.read c 0);
  Alcotest.(check bool) "hit same line" true (Cache.read c 24);
  Alcotest.(check bool) "hit same addr" true (Cache.read c 0);
  (* 256 bytes away maps to the same set: conflict. *)
  Alcotest.(check bool) "conflict miss" false (Cache.read c 256);
  Alcotest.(check bool) "evicted" false (Cache.read c 0);
  (* 224 bytes away is the eighth, last set: no conflict. *)
  Alcotest.(check bool) "other set" false (Cache.read c 224);
  Alcotest.(check bool) "0 still resident" true (Cache.probe c 0)

let test_cache_two_way_lru () =
  let c =
    Cache.create { Config.size_bytes = 256; line_bytes = 32; associativity = 2 }
  in
  (* 4 sets x 2 ways.  Three conflicting lines: LRU keeps the last two. *)
  ignore (Cache.read c 0);
  ignore (Cache.read c 256);
  Alcotest.(check bool) "both resident" true (Cache.read c 0);
  ignore (Cache.read c 512);
  (* evicts 256 (LRU), keeps 0 *)
  Alcotest.(check bool) "0 kept" true (Cache.read c 0);
  Alcotest.(check bool) "256 evicted" false (Cache.read c 256)

let test_cache_write_no_allocate () =
  let c = Cache.create small_geom in
  Alcotest.(check bool) "write miss" false (Cache.write c 64);
  (* Non-allocating: still absent. *)
  Alcotest.(check bool) "probe absent" false (Cache.probe c 64);
  ignore (Cache.read c 64);
  Alcotest.(check bool) "write hit after read" true (Cache.write c 64)

let test_cache_probe_no_disturb () =
  let c = Cache.create small_geom in
  ignore (Cache.read c 0);
  ignore (Cache.probe c 992);
  Alcotest.(check bool) "probe did not fill" false (Cache.probe c 992);
  (* Nor does it touch recency: in a 2-way set, probing the older line
     leaves it the LRU victim. *)
  let c =
    Cache.create { Config.size_bytes = 256; line_bytes = 32; associativity = 2 }
  in
  ignore (Cache.read c 0);
  ignore (Cache.read c 256);
  ignore (Cache.probe c 0);
  ignore (Cache.read c 512);
  Alcotest.(check bool) "probed line still the victim" false (Cache.probe c 0)

let test_branch_predictor () =
  let bp = Branch_pred.create ~table_size:16 in
  (* Weakly-taken initial state: first taken branch predicted correctly. *)
  Alcotest.(check bool) "initial taken ok" true
    (Branch_pred.predict_and_update bp ~addr:0 ~taken:true);
  (* Saturate towards taken, then two not-takens: first mispredicted. *)
  ignore (Branch_pred.predict_and_update bp ~addr:0 ~taken:true);
  Alcotest.(check bool) "sudden not-taken mispredicted" false
    (Branch_pred.predict_and_update bp ~addr:0 ~taken:false);
  Alcotest.(check bool) "still predicted taken (2-bit hysteresis)" false
    (Branch_pred.predict_and_update bp ~addr:0 ~taken:false);
  Alcotest.(check bool) "now predicts not-taken" true
    (Branch_pred.predict_and_update bp ~addr:0 ~taken:false);
  (* A loop branch pattern TTTTN TTTTN ... mispredicts ~1/5. *)
  let bp = Branch_pred.create ~table_size:16 in
  let mispredicts = ref 0 in
  for i = 0 to 99 do
    let taken = i mod 5 <> 4 in
    if not (Branch_pred.predict_and_update bp ~addr:64 ~taken) then
      incr mispredicts
  done;
  Alcotest.(check bool)
    (Printf.sprintf "loop branch mispredicts %d/100" !mispredicts)
    true
    (!mispredicts >= 15 && !mispredicts <= 25)

let test_store_buffer () =
  let sb = Store_buffer.create ~entries:2 in
  (* Two stores fill the buffer; the third stalls until the first drains. *)
  check Alcotest.int "no stall 1" 0 (Store_buffer.push sb ~now:0 ~drain:10);
  check Alcotest.int "no stall 2" 0 (Store_buffer.push sb ~now:1 ~drain:10);
  (* First completes at 10, second at 20.  At now=2 the buffer is full:
     stall until 10. *)
  check Alcotest.int "stall until first drains" 8
    (Store_buffer.push sb ~now:2 ~drain:10);
  (* Long after everything drained: no stall. *)
  check Alcotest.int "drained" 0 (Store_buffer.push sb ~now:1000 ~drain:10)

let test_store_buffer_serialised () =
  let sb = Store_buffer.create ~entries:3 in
  (* Back-to-back stores drain one after another, not in parallel. *)
  ignore (Store_buffer.push sb ~now:0 ~drain:5);
  ignore (Store_buffer.push sb ~now:0 ~drain:5);
  ignore (Store_buffer.push sb ~now:0 ~drain:5);
  (* Serialised completions at 5, 10 and 15: full at 4, so a fourth store
     waits for the first (and completes at 20); at 7 the buffer is full
     again and the next waits for the second, at 10. *)
  check Alcotest.int "full at 4" 1 (Store_buffer.push sb ~now:4 ~drain:5);
  check Alcotest.int "full again at 7" 3 (Store_buffer.push sb ~now:7 ~drain:5);
  check Alcotest.int "two slots free at 15" 0
    (Store_buffer.push sb ~now:15 ~drain:5)

let test_fp_unit () =
  let fp = Fp_unit.create Config.default ~nregs:8 in
  (* f2 = f0 + f1 at cycle 0: ready at 3.  A dependent op at cycle 1 stalls
     2 cycles. *)
  check Alcotest.int "no stall on ready srcs" 0
    (Fp_unit.issue fp ~now:0 ~cls:Fp_unit.Fp_add ~dst:2 ~s1:0 ~s2:1);
  check Alcotest.int "dependent stalls" 2
    (Fp_unit.issue fp ~now:1 ~cls:Fp_unit.Fp_add ~dst:3 ~s1:2 ~s2:2);
  (* dst 3 issued at 3, ready at 6; a store of f3 at cycle 4 stalls 2. *)
  check Alcotest.int "consumer stalls" 2 (Fp_unit.use fp ~now:4 ~src:3);
  (* Divides are long. *)
  Fp_unit.clear fp;
  ignore (Fp_unit.issue fp ~now:0 ~cls:Fp_unit.Fp_div ~dst:4 ~s1:0 ~s2:0);
  check Alcotest.int "div latency" 12 (Fp_unit.use fp ~now:0 ~src:4);
  (* define resets availability. *)
  Fp_unit.define fp ~now:100 ~dst:4;
  check Alcotest.int "defined ready" 0 (Fp_unit.use fp ~now:100 ~src:4)

(* Add [n] events of kind [e], as {!Machine} does through the live totals. *)
let bump c e n =
  let totals = Counters.raw_totals c in
  totals.(Counters.ix e) <- totals.(Counters.ix e) + n

let test_counters_and_pics () =
  let c = Counters.create () in
  Counters.select c ~pic0:Event.Dcache_read_misses ~pic1:Event.Instructions;
  bump c Event.Dcache_read_misses 7;
  bump c Event.Instructions 100;
  check Alcotest.int "pic0" 7 (Counters.read_pic c 0);
  check Alcotest.int "pic1" 100 (Counters.read_pic c 1);
  Counters.zero_pics c;
  check Alcotest.int "zeroed" 0 (Counters.read_pic c 0);
  bump c Event.Dcache_read_misses 3;
  check Alcotest.int "counts since zero" 3 (Counters.read_pic c 0);
  check Alcotest.int "total unaffected" 10
    (Counters.total c Event.Dcache_read_misses);
  (* write_pic restores a saved value. *)
  Counters.write_pic c 0 1000;
  check Alcotest.int "restored" 1000 (Counters.read_pic c 0);
  bump c Event.Dcache_read_misses 1;
  check Alcotest.int "accrues after restore" 1001 (Counters.read_pic c 0)

let test_pic_wrap_32bit () =
  let c = Counters.create () in
  Counters.select c ~pic0:Event.Cycles ~pic1:Event.Instructions;
  Counters.zero_pics c;
  (* A PIC is a 32-bit window: 2^32 + 5 events read back as 5 — the
     overflow hazard of 3.3 that path-length intervals avoid. *)
  bump c Event.Cycles ((1 lsl 32) + 5);
  check Alcotest.int "wraps" 5 (Counters.read_pic c 0);
  check Alcotest.int "full total kept" ((1 lsl 32) + 5)
    (Counters.total c Event.Cycles)

let test_machine_integration () =
  let m = Machine.create Config.default in
  let c = Machine.counters m in
  (* A fetch costs one instruction and at least one cycle. *)
  Machine.fetch m ~addr:0x40000000;
  check Alcotest.int "one instruction" 1 (Counters.total c Event.Instructions);
  Alcotest.(check bool) "cycles advanced" true (Machine.now m >= 1);
  (* A load miss costs the penalty. *)
  let before = Machine.now m in
  Machine.load m ~addr:0x20000;
  check Alcotest.int "read miss counted" 1
    (Counters.total c Event.Dcache_read_misses);
  check Alcotest.int "miss penalty" (Config.default.Config.dcache_miss_penalty)
    (Machine.now m - before);
  (* Same line again: free. *)
  let before = Machine.now m in
  Machine.load m ~addr:0x20008;
  check Alcotest.int "hit costs nothing" 0 (Machine.now m - before);
  (* Combined miss event mirrors read+write misses. *)
  Machine.store m ~addr:0x30000;
  check Alcotest.int "dc_miss = rd + wr" 2 (Counters.total c Event.Dcache_misses)

let test_icache_and_mispredict_accounting () =
  let m = Machine.create Config.default in
  let c = Machine.counters m in
  (* Same line: one miss then hits. *)
  Machine.fetch m ~addr:0x40000000;
  Machine.fetch m ~addr:0x40000004;
  Machine.fetch m ~addr:0x4000001c;
  check Alcotest.int "one icache miss" 1 (Counters.total c Event.Icache_misses);
  (* Next line misses again. *)
  Machine.fetch m ~addr:0x40000020;
  check Alcotest.int "second line misses" 2
    (Counters.total c Event.Icache_misses);
  (* Mispredict stalls = mispredicts x penalty. *)
  let m = Machine.create Config.default in
  let c = Machine.counters m in
  for i = 0 to 9 do
    Machine.branch m ~addr:0x40000000 ~taken:(i mod 2 = 0)
  done;
  let mp = Counters.total c Event.Branch_mispredicts in
  Alcotest.(check bool) "alternating mispredicts a lot" true (mp >= 4);
  check Alcotest.int "stall cycles = penalty x mispredicts"
    (mp * Config.default.Config.mispredict_penalty)
    (Counters.total c Event.Mispredict_stalls)

let test_config_validation () =
  let bad =
    { Config.default with
      Config.dcache =
        { Config.size_bytes = 1000; line_bytes = 32; associativity = 1 } }
  in
  (match Config.validate bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of non-power-of-two size");
  let bad2 = { Config.default with Config.mispredict_penalty = 0 } in
  match Config.validate bad2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of zero penalty"

let prop_cache_miss_count_matches_reference =
  (* The cache the machine probes hits exactly when a naive reference
     simulation does, on a random access trace. *)
  QCheck.Test.make ~name:"cache agrees with reference simulation" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let geom =
        { Config.size_bytes = 512; line_bytes = 32; associativity = 2 }
      in
      let c = Cache.create geom in
      (* Reference: per set, a list of lines in LRU order. *)
      let nsets = 512 / (32 * 2) in
      let sets = Array.make nsets [] in
      let agree = ref true in
      for _ = 1 to 500 do
        let addr = Random.State.int rng 4096 in
        let line = addr / 32 in
        let set = line mod nsets in
        let ref_hit = List.mem line sets.(set) in
        (if ref_hit then
           sets.(set) <- line :: List.filter (fun l -> l <> line) sets.(set)
         else begin
           let kept =
             if List.length sets.(set) >= 2 then
               [ List.hd sets.(set) ]
             else sets.(set)
           in
           sets.(set) <- line :: kept
         end);
        if Cache.read_hot c addr <> ref_hit then agree := false
      done;
      !agree)

(* {2 Batched segment events == per-instruction calls}

   The compiled engine reports a segment's machine events either as
   interleaved slow calls (precise tier) or as one plan built by
   [Machine.plan]: [block_bulk] for a fetch/load-only segment,
   [block_ordered] (groups of fetches and loads, each applied in one step
   before its clock-reading event) otherwise.  Drive both from the same
   random event stream, on random cache geometries [Config.validate]
   accepts (1/2/4/8-way, 4-64-byte lines, so the direct, 2-way and
   generic range readers of [Cache.read_many] all run), and require
   bit-identical counters and clock after every block — internal state
   divergence (cache, store buffer, FP scoreboard) would surface in a
   later block's snapshot. *)

type ev =
  | F of int  (* instruction fetch at address *)
  | L of int  (* data read *)
  | S of int  (* data write *)
  | FI of Fp_unit.op_class * int * int * int  (* issue cls dst s1 s2 *)
  | FU of int
  | FD of int

(* A block of 3-14 instructions.  [`Loads_only] reads and fetches only,
   the shape [block_bulk] takes; [`With_store] stores at its first
   instruction, so it takes [block_ordered]; [`Any] is loads-only one
   time in four. *)
let gen_block rng ~shape base =
  let n = 3 + Random.State.int rng 12 in
  let loads_only =
    match shape with
    | `Loads_only -> true
    | `With_store -> false
    | `Any -> Random.State.int rng 4 = 0
  in
  let evs = ref [] in
  let pc = ref base in
  let data () = 4 * Random.State.int rng 2048 in
  for i = 1 to n do
    evs := F !pc :: !evs;
    pc := !pc + 4;
    (match
       if i = 1 && shape = `With_store then 2
       else Random.State.int rng (if loads_only then 4 else 8)
     with
    | 0 | 1 -> evs := L (data ()) :: !evs
    | 2 | 3 -> evs := S (data ()) :: !evs
    | 4 ->
        let cls =
          match Random.State.int rng 3 with
          | 0 -> Fp_unit.Fp_add
          | 1 -> Fp_unit.Fp_mul
          | _ -> Fp_unit.Fp_div
        in
        evs :=
          FI
            ( cls,
              Random.State.int rng 8,
              Random.State.int rng 8,
              Random.State.int rng 8 )
          :: !evs
    | 5 -> evs := FU (Random.State.int rng 8) :: !evs
    | 6 -> evs := FD (Random.State.int rng 8) :: !evs
    | _ -> ())
  done;
  let evs = List.rev !evs in
  ( (if loads_only then List.filter (function S _ -> false | _ -> true) evs
     else evs),
    !pc )

let apply_slow m evs =
  List.iter
    (function
      | F a -> Machine.fetch m ~addr:a
      | L a -> Machine.load m ~addr:a
      | S a -> Machine.store m ~addr:a
      | FI (cls, dst, s1, s2) -> Machine.fp_issue m ~cls ~dst ~s1 ~s2
      | FU s -> Machine.fp_use m ~src:s
      | FD d -> Machine.fp_define m ~dst:d)
    evs

(* The block as the compiler hands it over: events in program order,
   loads in [dyn] slots 0.. and stores in the slots after them. *)
let apply_batched m evs =
  let loads = List.filter_map (function L a -> Some a | _ -> None) evs in
  let stores = List.filter_map (function S a -> Some a | _ -> None) evs in
  let dyn = Array.of_list (loads @ stores) in
  let next_load = ref 0 and next_store = ref (List.length loads) in
  let take r =
    let s = !r in
    incr r;
    s
  in
  let ops =
    List.map
      (function
        | F a -> Machine.Bfetch a
        | L _ -> Machine.Bload (take next_load)
        | S _ -> Machine.Bstore (take next_store)
        | FI (cls, dst, s1, s2) -> Machine.Bfp_issue { cls; dst; s1; s2 }
        | FU s -> Machine.Bfp_use s
        | FD d -> Machine.Bfp_define d)
      evs
  in
  match Machine.plan m ops with
  | Machine.Bulk { fetches; leaders; nloads } ->
      Machine.block_bulk m ~fetches ~leaders ~dyn ~nloads;
      `Bulk
  | Machine.Ordered o ->
      Machine.block_ordered m o ~dyn;
      `Ordered

let snapshot m =
  let c = Machine.counters m in
  String.concat " "
    (List.map
       (fun e -> Printf.sprintf "%s=%d" (Event.name e) (Counters.total c e))
       Event.all)
  ^ Printf.sprintf " now=%d" (Machine.now m)

(* A geometry of [sets] sets of [assoc] ways of [line] bytes. *)
let random_geometry rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let line_bytes = pick [| 4; 8; 16; 32; 64 |]
  and associativity = pick [| 1; 2; 4; 8 |]
  and sets = pick [| 1; 2; 4; 8; 16 |] in
  { Config.size_bytes = sets * associativity * line_bytes; line_bytes;
    associativity }

let prop_batched_equals_slow =
  QCheck.Test.make ~count:40 ~long_factor:50
    ~name:"block_bulk / block_ordered == per-instruction calls"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 11 |] in
      let config =
        Config.validate
          { Config.default with
            Config.icache = random_geometry rng;
            dcache = random_geometry rng;
            store_buffer_entries = 1 + Random.State.int rng 6 }
      in
      let slow = Machine.create config in
      let batch = Machine.create config in
      let line_bytes = config.Config.icache.Config.line_bytes in
      Machine.fp_frame slow ~nregs:8;
      Machine.fp_frame batch ~nregs:8;
      let base = ref 4096 in
      let forms = ref [] in
      for b = 1 to 40 do
        (* Occasionally jump back so icache lines conflict and re-hit. *)
        if Random.State.int rng 4 = 0 then
          base := 4096 + (4 * Random.State.int rng 64);
        let shape =
          match b with 1 -> `Loads_only | 2 -> `With_store | _ -> `Any
        in
        let evs, term_addr = gen_block rng ~shape !base in
        apply_slow slow evs;
        forms := apply_batched batch evs :: !forms;
        (* Terminator: fetch+branch vs fetch_term (probe elided when the
           terminator shares the last body fetch's line) + the same
           branch. *)
        let taken = Random.State.bool rng in
        Machine.fetch slow ~addr:term_addr;
        Machine.branch slow ~addr:term_addr ~taken;
        let probe = term_addr / line_bytes <> (term_addr - 4) / line_bytes in
        Machine.fetch_term batch ~addr:term_addr ~probe;
        Machine.branch batch ~addr:term_addr ~taken;
        base := term_addr + 4;
        if snapshot slow <> snapshot batch then
          QCheck.Test.fail_reportf "diverged:@.slow  %s@.batch %s"
            (snapshot slow) (snapshot batch)
      done;
      if not (List.mem `Bulk !forms && List.mem `Ordered !forms) then
        QCheck.Test.fail_reportf "seed %d did not plan both forms" seed;
      true)

(* Satellite checks for pp predict: the batched cache path the compiled
   engine uses must stay observably identical to per-probe reads at
   higher associativities, and Config.validate must reject the
   geometries the predictor would otherwise model nonsensically. *)

let prop_read_many_equals_reads =
  QCheck.Test.make ~count:60
    ~name:"read_many == successive reads (associativity >= 4)"
    QCheck.(pair (int_range 0 10_000) (int_range 4 8))
    (fun (seed, assoc) ->
      let rng = Random.State.make [| seed; 23 |] in
      let geom =
        { Config.size_bytes = 1024 * assoc; line_bytes = 32;
          associativity = assoc }
      in
      let a = Cache.create geom and b = Cache.create geom in
      let span = 65536 in
      let ok = ref true in
      for _ = 1 to 25 do
        let n = 1 + Random.State.int rng 16 in
        let addrs = Array.init 16 (fun _ -> Random.State.int rng span) in
        let slow = ref 0 in
        for i = 0 to n - 1 do
          if not (Cache.read a addrs.(i)) then incr slow
        done;
        let batched = Cache.read_many b addrs 0 n in
        if batched <> !slow then ok := false;
        for l = 0 to (span / 32) - 1 do
          if Cache.probe a (l * 32) <> Cache.probe b (l * 32) then ok := false
        done
      done;
      if not !ok then
        QCheck.Test.fail_reportf "read_many diverged at assoc %d" assoc;
      true)

(* [read]/[write] are the reference LRU model; every engine probes
   through the allocation-free [read_hot]/[write_hot], which must agree
   with it on each hit bit and the final contents, on every
   associativity the specialised paths distinguish. *)

let prop_hot_probes_equal_reference =
  QCheck.Test.make ~count:200
    ~name:"read_hot/write_hot == reference read/write (1/2/4/8-way)"
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, wi) ->
      let rng = Random.State.make [| seed; 37 |] in
      let assoc = 1 lsl wi in
      (* 8 sets of [assoc] ways over a 128-line span: every set sees 16
         competing lines, so hits, misses and evictions all occur. *)
      let geom =
        { Config.size_bytes = 256 * assoc; line_bytes = 32;
          associativity = assoc }
      in
      let reference = Cache.create geom and hot = Cache.create geom in
      let span = 4096 in
      let last = ref 0 in
      for step = 1 to 400 do
        (* Half the accesses revisit the previous address's line. *)
        let a =
          if Random.State.bool rng then !last + Random.State.int rng 32
          else Random.State.int rng span
        in
        last := a land lnot 31;
        let write = Random.State.int rng 3 = 0 in
        let r, h =
          if write then (Cache.write reference a, Cache.write_hot hot a)
          else (Cache.read reference a, Cache.read_hot hot a)
        in
        if r <> h then
          QCheck.Test.fail_reportf "%d-way, step %d: %s 0x%x hit %b vs %b"
            assoc step
            (if write then "write" else "read")
            a r h
      done;
      for l = 0 to (span / 32) - 1 do
        if Cache.probe reference (l * 32) <> Cache.probe hot (l * 32) then
          QCheck.Test.fail_reportf "%d-way: line %d resident in one only"
            assoc l
      done;
      true)

(* A runtime stub charges [count] fetches wrapping inside its [slots]
   slots as one [fetch_run]: it must match the separate fetches in every
   counter, the clock and the icache contents, from a warmed cache, on
   every geometry the runtime can meet — including 1-byte lines (every
   slot its own line) and the halved-line geometry of
   [pp predict --inject icache]. *)

let fetch_run_geometries =
  let g size_bytes line_bytes associativity =
    { Config.size_bytes; line_bytes; associativity }
  in
  [|
    g 512 32 1;
    Config.default.Config.icache;
    g 1024 16 4;
    g 2048 32 8;
    g 64 1 1;
    g 128 1 4;
    (let g = Config.default.Config.icache in
     { g with Config.line_bytes = g.Config.line_bytes / 2 });
  |]

let prop_fetch_run_equals_fetches =
  QCheck.Test.make ~count:300
    ~name:"fetch_run == count separate fetches (all icache geometries)"
    QCheck.(
      quad (int_range 0 10_000)
        (int_range 0 (Array.length fetch_run_geometries - 1))
        (int_range 1 20) (int_range 0 60))
    (fun (seed, gi, slots, count) ->
      let rng = Random.State.make [| seed; 31 |] in
      let config =
        { Config.default with Config.icache = fetch_run_geometries.(gi) }
      in
      let slow = Machine.create config and fast = Machine.create config in
      let span = 4096 in
      let random_fetches () =
        for _ = 1 to 40 do
          let a = 4 * Random.State.int rng (span / 4) in
          Machine.fetch slow ~addr:a;
          Machine.fetch fast ~addr:a
        done
      in
      random_fetches ();
      let addr = 4 * Random.State.int rng (span / 4) in
      for i = 0 to count - 1 do
        Machine.fetch slow ~addr:(addr + (i mod slots * 4))
      done;
      Machine.fetch_run fast ~addr ~slots ~count;
      (* Fetching every slot in turn shows a line that one machine holds
         and the other does not as a differing miss count. *)
      let same_lines () =
        let ok = ref true in
        for a = 0 to (span / 4) + slots do
          Machine.fetch slow ~addr:(4 * a);
          Machine.fetch fast ~addr:(4 * a);
          if snapshot slow <> snapshot fast then ok := false
        done;
        !ok
      in
      let after_run = snapshot slow = snapshot fast && same_lines () in
      (* Later fetches expose any divergence in LRU order. *)
      random_fetches ();
      if not (after_run && snapshot slow = snapshot fast && same_lines ()) then
        QCheck.Test.fail_reportf
          "geometry %d, slots %d, count %d diverged:@.slow %s@.fast %s" gi slots
          count (snapshot slow) (snapshot fast);
      true)

let contains ~needle msg =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let expect_invalid ~needle f =
  match f () with
  | exception Invalid_argument msg ->
      if not (contains ~needle msg) then
        Alcotest.failf "diagnostic %S does not mention %S" msg needle
  | (_ : Config.t) ->
      Alcotest.failf "expected Invalid_argument mentioning %S" needle

let test_config_validation_edges () =
  let dgeom g = { Config.default with Config.dcache = g } in
  (* Non-power-of-two line size, with the cache named in the message. *)
  expect_invalid ~needle:"icache" (fun () ->
      Config.validate
        { Config.default with
          Config.icache =
            { Config.size_bytes = 16384; line_bytes = 24; associativity = 2 }
        });
  expect_invalid ~needle:"line size" (fun () ->
      Config.validate
        (dgeom { Config.size_bytes = 16384; line_bytes = 48; associativity = 1 }));
  (* Associativity exceeding the line count: line * assoc no longer
     divides size, i.e. there is not even one whole set. *)
  expect_invalid ~needle:"dcache" (fun () ->
      Config.validate
        (dgeom
           { Config.size_bytes = 16384; line_bytes = 32; associativity = 1024 }));
  expect_invalid ~needle:"associativity" (fun () ->
      Config.validate
        (dgeom { Config.size_bytes = 16384; line_bytes = 32; associativity = 0 }));
  (* Zero penalties and latencies, each named. *)
  expect_invalid ~needle:"store_drain_cycles" (fun () ->
      Config.validate { Config.default with Config.store_drain_cycles = 0 });
  expect_invalid ~needle:"fp_div_latency" (fun () ->
      Config.validate { Config.default with Config.fp_div_latency = 0 });
  expect_invalid ~needle:"icache_miss_penalty" (fun () ->
      Config.validate { Config.default with Config.icache_miss_penalty = 0 })

let suite =
  [
    Alcotest.test_case "direct-mapped cache" `Quick test_cache_direct_mapped;
    Alcotest.test_case "two-way LRU" `Quick test_cache_two_way_lru;
    Alcotest.test_case "write no-allocate" `Quick test_cache_write_no_allocate;
    Alcotest.test_case "probe is non-destructive" `Quick
      test_cache_probe_no_disturb;
    Alcotest.test_case "branch predictor 2-bit" `Quick test_branch_predictor;
    Alcotest.test_case "store buffer stalls when full" `Quick
      test_store_buffer;
    Alcotest.test_case "store buffer serialises drains" `Quick
      test_store_buffer_serialised;
    Alcotest.test_case "fp scoreboard" `Quick test_fp_unit;
    Alcotest.test_case "counters and PICs" `Quick test_counters_and_pics;
    Alcotest.test_case "PIC 32-bit wrap" `Quick test_pic_wrap_32bit;
    Alcotest.test_case "machine integration" `Quick test_machine_integration;
    Alcotest.test_case "icache and mispredict accounting" `Quick
      test_icache_and_mispredict_accounting;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config validation: predictor edge cases" `Quick
      test_config_validation_edges;
    QCheck_alcotest.to_alcotest prop_cache_miss_count_matches_reference;
    QCheck_alcotest.to_alcotest prop_batched_equals_slow;
    QCheck_alcotest.to_alcotest prop_read_many_equals_reads;
    QCheck_alcotest.to_alcotest prop_fetch_run_equals_fetches;
    QCheck_alcotest.to_alcotest prop_hot_probes_equal_reference;
  ]
