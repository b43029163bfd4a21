type t = {
  config : Config.t;
  counters : Counters.t;
  totals : int array;
      (* Counters.raw_totals counters, cached for the entry points
         below: a bump is then a single in-place array update *)
  dcache : Cache.t;
  icache : Cache.t;
  branch_pred : Branch_pred.t;
  store_buffer : Store_buffer.t;
  fp : Fp_unit.t;
  mutable cycles : int;
  (* Penalty constants copied out of [config] so the entry points read
     one scalar field instead of chasing nested config records. *)
  ic_pen : int;
  dc_pen : int;
  mp_pen : int;
  sd_hit : int;
  sd_miss : int;
}

let create config =
  let config = Config.validate config in
  let counters = Counters.create () in
  {
    config;
    counters;
    totals = Counters.raw_totals counters;
    dcache = Cache.create config.Config.dcache;
    icache = Cache.create config.Config.icache;
    branch_pred = Branch_pred.create ~table_size:config.Config.branch_table_size;
    store_buffer =
      Store_buffer.create ~entries:config.Config.store_buffer_entries;
    fp = Fp_unit.create config ~nregs:32;
    cycles = 0;
    ic_pen = config.Config.icache_miss_penalty;
    dc_pen = config.Config.dcache_miss_penalty;
    mp_pen = config.Config.mispredict_penalty;
    sd_hit = config.Config.store_drain_cycles;
    sd_miss = config.Config.store_drain_miss_cycles;
  }

let config t = t.config
let counters t = t.counters
let now t = t.cycles

(* Pre-resolved counter indices: every entry point below bumps the
   cached totals array in place. *)
let ix_cycles = Counters.ix Event.Cycles
let ix_insts = Counters.ix Event.Instructions
let ix_icrefs = Counters.ix Event.Icache_refs
let ix_icmiss = Counters.ix Event.Icache_misses
let ix_loads = Counters.ix Event.Loads
let ix_dcreads = Counters.ix Event.Dcache_reads
let ix_dcreadmiss = Counters.ix Event.Dcache_read_misses
let ix_dcmiss = Counters.ix Event.Dcache_misses
let ix_stores = Counters.ix Event.Stores
let ix_dcwrites = Counters.ix Event.Dcache_writes
let ix_dcwritemiss = Counters.ix Event.Dcache_write_misses
let ix_sbstalls = Counters.ix Event.Store_buffer_stalls
let ix_branches = Counters.ix Event.Branches
let ix_brmiss = Counters.ix Event.Branch_mispredicts
let ix_mpstalls = Counters.ix Event.Mispredict_stalls
let ix_fpops = Counters.ix Event.Fp_ops
let ix_fpstalls = Counters.ix Event.Fp_stalls

(* A bump against the cached totals array; same module, so it inlines to
   one in-place array update. *)
let[@inline always] badd (tot : int array) i n =
  Array.unsafe_set tot i (Array.unsafe_get tot i + n)

(* [n] stall cycles charged to the stall event [ix]: the clock, the
   cycle count and the event advance together. *)
let[@inline] stall t ix n =
  if n > 0 then begin
    t.cycles <- t.cycles + n;
    badd t.totals ix_cycles n;
    badd t.totals ix n
  end

let fetch t ~addr =
  let tot = t.totals in
  badd tot ix_insts 1;
  badd tot ix_icrefs 1;
  if Cache.read_hot t.icache addr then begin
    t.cycles <- t.cycles + 1;
    badd tot ix_cycles 1
  end
  else begin
    badd tot ix_icmiss 1;
    let cy = 1 + t.ic_pen in
    t.cycles <- t.cycles + cy;
    badd tot ix_cycles cy
  end

let load t ~addr =
  let tot = t.totals in
  badd tot ix_loads 1;
  badd tot ix_dcreads 1;
  if not (Cache.read_hot t.dcache addr) then begin
    badd tot ix_dcreadmiss 1;
    badd tot ix_dcmiss 1;
    let p = t.dc_pen in
    t.cycles <- t.cycles + p;
    badd tot ix_cycles p
  end

(* A store and an FP issue are a fixed count bump plus a dynamic half —
   cache probe, stall and clock.  The entry points below do both; the
   batched [block_ordered] runs only the dynamic half, having applied
   the counts in bulk. *)

let[@inline] store_dynamic t addr =
  let hit = Cache.write_hot t.dcache addr in
  if not hit then begin
    let tot = t.totals in
    badd tot ix_dcwritemiss 1;
    badd tot ix_dcmiss 1
  end;
  let drain = if hit then t.sd_hit else t.sd_miss in
  stall t ix_sbstalls (Store_buffer.push t.store_buffer ~now:t.cycles ~drain)

let store t ~addr =
  let tot = t.totals in
  badd tot ix_stores 1;
  badd tot ix_dcwrites 1;
  store_dynamic t addr

let branch t ~addr ~taken =
  let tot = t.totals in
  badd tot ix_branches 1;
  if not (Branch_pred.predict_and_update t.branch_pred ~addr ~taken) then begin
    badd tot ix_brmiss 1;
    stall t ix_mpstalls t.mp_pen
  end

let[@inline] fp_issue_dynamic t ~cls ~dst ~s1 ~s2 =
  stall t ix_fpstalls (Fp_unit.issue t.fp ~now:t.cycles ~cls ~dst ~s1 ~s2)

let fp_issue t ~cls ~dst ~s1 ~s2 =
  badd t.totals ix_fpops 1;
  fp_issue_dynamic t ~cls ~dst ~s1 ~s2

(* All dynamic: a use has no fixed count. *)
let[@inline] fp_use t ~src =
  stall t ix_fpstalls (Fp_unit.use t.fp ~now:t.cycles ~src)

let fp_define t ~dst = Fp_unit.define t.fp ~now:t.cycles ~dst

let fp_frame t ~nregs =
  Fp_unit.ensure t.fp ~nregs;
  Fp_unit.clear t.fp

(* Batched per-segment event replay for the compiled engine.

   A segment's machine events arrive as [block_op]s in program order and
   are planned once, at compile time.  Only stores (the store buffer's
   [now]) and FP issue/use/define read the clock.  Fetches and loads only
   add cycles, each to its own cache — the icache and dcache keep
   separate LRU clocks — so between two clock-reading events the
   fetches' cycles, the icache probes (in program order) and the dcache
   loads (in program order) commute with each other and can be applied
   in one step just before the event.  A plan is that sequence of groups.

   Within a segment only fetches touch the icache, so a fetch to the line
   fetched just before would hit a line that is already the most recent
   in its set: one probe per change of line (a {e leader}) leaves tags,
   relative LRU order and the miss count exactly as a probe per fetch. *)
type block_op =
  | Bfetch of int
  | Bload of int
  | Bstore of int
  | Bfp_issue of { cls : Fp_unit.op_class; dst : int; s1 : int; s2 : int }
  | Bfp_use of int
  | Bfp_define of int

(* The clock-reading event that closes a group; [Tail] closes the
   segment's last group. *)
type event =
  | Store of int
  | Fp_issue of { cls : Fp_unit.op_class; dst : int; s1 : int; s2 : int }
  | Fp_use of int
  | Fp_define of int
  | Tail

(* Before [event]: [fetches] fetch cycles, the icache leaders
   [leaders.(leaders_lo .. leaders_hi - 1)] and the loads
   [dyn.(loads_lo .. loads_hi - 1)]. *)
type group = {
  fetches : int;
  leaders_lo : int;
  leaders_hi : int;
  loads_lo : int;
  loads_hi : int;
  event : event;
}

type ordered = {
  insts : int;
  loads : int;
  stores : int;
  fpops : int;
  leaders : int array;
  groups : group array;
}

type plan =
  | Bulk of { fetches : int; leaders : int array; nloads : int }
  | Ordered of ordered

let plan t ops =
  let lb = t.config.Config.icache.Config.line_bytes in
  let leaders_rev = ref [] and nleaders = ref 0 and last_line = ref min_int in
  let insts = ref 0 and loads = ref 0 and stores = ref 0 and fpops = ref 0 in
  let groups_rev = ref [] in
  let fetches = ref 0 and leaders_lo = ref 0 and loads_lo = ref 0 in
  let close event =
    groups_rev :=
      {
        fetches = !fetches;
        leaders_lo = !leaders_lo;
        leaders_hi = !nleaders;
        loads_lo = !loads_lo;
        loads_hi = !loads;
        event;
      }
      :: !groups_rev;
    fetches := 0;
    leaders_lo := !nleaders;
    loads_lo := !loads
  in
  List.iter
    (function
      | Bfetch addr ->
          let line = addr / lb in
          if line <> !last_line then begin
            leaders_rev := addr :: !leaders_rev;
            incr nleaders;
            last_line := line
          end;
          incr insts;
          incr fetches
      | Bload slot ->
          if slot <> !loads then
            invalid_arg "Machine.plan: load slots must count up from 0";
          incr loads
      | Bstore slot ->
          incr stores;
          close (Store slot)
      | Bfp_issue { cls; dst; s1; s2 } ->
          incr fpops;
          close (Fp_issue { cls; dst; s1; s2 })
      | Bfp_use src -> close (Fp_use src)
      | Bfp_define dst -> close (Fp_define dst))
    ops;
  let leaders = Array.of_list (List.rev !leaders_rev) in
  if !groups_rev = [] then Bulk { fetches = !insts; leaders; nloads = !loads }
  else begin
    if !fetches > 0 || !loads > !loads_lo then close Tail;
    Ordered
      {
        insts = !insts;
        loads = !loads;
        stores = !stores;
        fpops = !fpops;
        leaders;
        groups = Array.of_list (List.rev !groups_rev);
      }
  end

(* Read lines [first..last] of [ic] in order; the number of misses. *)
let probe_lines ic ~lb first last =
  let misses = ref 0 in
  for l = first to last do
    if not (Cache.read_hot ic (l * lb)) then incr misses
  done;
  !misses

(* A run of [count] fetches inside a runtime stub of [slots] instruction
   slots at [addr], wrapping like a loop inside it.  Nothing else touches
   the icache during the run and nothing reads the clock, so it is
   applied as bulk bumps plus one probe per change of line: a skipped
   probe re-reads the line probed just before, which would hit and touch
   a line that is already the most recent in its set — tags, relative
   LRU order and the miss count match [count] calls of [fetch].

   With lines of at least 4 bytes, consecutive slots lie in the same or
   the next line, so a wrap probes every line from the stub's first to
   its last once, and a stub inside one line is probed once for the
   whole run.  Shorter lines can fall between two slots; they take the
   per-slot walk. *)
let fetch_run t ~addr ~slots ~count =
  if count > 0 then begin
    let tot = t.totals and ic = t.icache in
    let nslots = max 1 slots in
    let lb = t.config.Config.icache.Config.line_bytes in
    let misses = ref 0 in
    if lb >= 4 then begin
      let first = Cache.line ic addr in
      let last = Cache.line ic (addr + ((nslots - 1) * 4)) in
      if first = last then misses := probe_lines ic ~lb first first
      else begin
        for _ = 1 to count / nslots do
          misses := !misses + probe_lines ic ~lb first last
        done;
        let rem = count mod nslots in
        if rem > 0 then
          misses :=
            !misses
            + probe_lines ic ~lb first (Cache.line ic (addr + ((rem - 1) * 4)))
      end
    end
    else begin
      let last = ref (-1) in
      for i = 0 to count - 1 do
        let a = addr + (i mod nslots * 4) in
        let line = Cache.line ic a in
        if line <> !last then begin
          last := line;
          if not (Cache.read_hot ic a) then incr misses
        end
      done
    end;
    badd tot ix_insts count;
    badd tot ix_icrefs count;
    if !misses > 0 then badd tot ix_icmiss !misses;
    let cy = count + (!misses * t.ic_pen) in
    t.cycles <- t.cycles + cy;
    badd tot ix_cycles cy
  end

(* The whole-block fast form, for batched blocks whose events are only
   instruction fetches and data reads: nothing in such a block reads the
   clock, so cycles, counter bumps and the two caches' probes commute —
   totals are applied in bulk and each cache is probed in program order.
   [leaders] holds the first fetch address of each distinct icache line
   touched by the block's body (fetch addresses increase monotonically
   within a block, so each line appears exactly once); [dyn.(0..nloads-1)]
   are the load addresses in program order. *)
let block_bulk t ~fetches ~leaders ~dyn ~nloads =
  let tot = t.totals in
  badd tot ix_insts fetches;
  badd tot ix_icrefs fetches;
  let cycles = ref fetches in
  let im = Cache.read_many t.icache leaders 0 (Array.length leaders) in
  if im > 0 then begin
    badd tot ix_icmiss im;
    cycles := !cycles + (im * t.ic_pen)
  end;
  if nloads > 0 then begin
    badd tot ix_loads nloads;
    badd tot ix_dcreads nloads;
    let dm = Cache.read_many t.dcache dyn 0 nloads in
    if dm > 0 then begin
      badd tot ix_dcreadmiss dm;
      badd tot ix_dcmiss dm;
      cycles := !cycles + (dm * t.dc_pen)
    end
  end;
  t.cycles <- t.cycles + !cycles;
  badd tot ix_cycles !cycles

(* A compiled block's terminator fetch.  [probe:false] elides the icache
   probe when the terminator shares its cache line with the block's last
   body fetch: nothing between them touches the icache (data ops go to
   the dcache, the epilogue only reads counters), so the probe would hit
   a line that is already the most recent in its untouched set — tags,
   misses and relative recency are unchanged by skipping it. *)
let fetch_term t ~addr ~probe =
  let tot = t.totals in
  badd tot ix_insts 1;
  badd tot ix_icrefs 1;
  if probe && not (Cache.read_hot t.icache addr) then begin
    badd tot ix_icmiss 1;
    let cy = 1 + t.ic_pen in
    t.cycles <- t.cycles + cy;
    badd tot ix_cycles cy
  end
  else begin
    t.cycles <- t.cycles + 1;
    badd tot ix_cycles 1
  end

(* An ordered plan: the static event bumps in one go — counters are only
   read at block boundaries and by observers (calls, runtime stubs, PIC
   access), and the compiled tier flushes a segment before every
   observer, so they commute with the clock — then each group's fetch
   cycles, icache leaders and dcache loads in one step before its
   clock-reading event. *)
let block_ordered t p ~dyn =
  let tot = t.totals in
  badd tot ix_insts p.insts;
  badd tot ix_icrefs p.insts;
  if p.loads > 0 then begin
    badd tot ix_loads p.loads;
    badd tot ix_dcreads p.loads
  end;
  if p.stores > 0 then begin
    badd tot ix_stores p.stores;
    badd tot ix_dcwrites p.stores
  end;
  if p.fpops > 0 then badd tot ix_fpops p.fpops;
  let leaders = p.leaders and groups = p.groups in
  for i = 0 to Array.length groups - 1 do
    let g = Array.unsafe_get groups i in
    let cycles = ref g.fetches in
    if g.leaders_hi > g.leaders_lo then begin
      let m = Cache.read_many t.icache leaders g.leaders_lo g.leaders_hi in
      if m > 0 then begin
        badd tot ix_icmiss m;
        cycles := !cycles + (m * t.ic_pen)
      end
    end;
    if g.loads_hi > g.loads_lo then begin
      let m = Cache.read_many t.dcache dyn g.loads_lo g.loads_hi in
      if m > 0 then begin
        badd tot ix_dcreadmiss m;
        badd tot ix_dcmiss m;
        cycles := !cycles + (m * t.dc_pen)
      end
    end;
    if !cycles > 0 then begin
      t.cycles <- t.cycles + !cycles;
      badd tot ix_cycles !cycles
    end;
    match g.event with
    | Store s -> store_dynamic t (Array.unsafe_get dyn s)
    | Fp_issue { cls; dst; s1; s2 } -> fp_issue_dynamic t ~cls ~dst ~s1 ~s2
    | Fp_use src -> fp_use t ~src
    | Fp_define dst -> fp_define t ~dst
    | Tail -> ()
  done
