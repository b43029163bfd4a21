type t = {
  config : Config.t;
  counters : Counters.t;
  totals : int array;
      (* Counters.raw_totals counters, cached for the batched entry
         points below: a bump is then a single in-place array update *)
  dcache : Cache.t;
  icache : Cache.t;
  branch_pred : Branch_pred.t;
  store_buffer : Store_buffer.t;
  fp : Fp_unit.t;
  mutable cycles : int;
  (* Penalty constants copied out of [config] so the hot entry points
     read one scalar field instead of chasing nested config records. *)
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
let icache_probe t ~addr = Cache.probe t.icache addr
let now t = t.cycles

let spend t event n =
  if n > 0 then begin
    t.cycles <- t.cycles + n;
    Counters.bump t.counters Event.Cycles n;
    Counters.bump t.counters event n
  end

let fetch t ~addr =
  Counters.bump t.counters Event.Instructions 1;
  Counters.bump t.counters Event.Icache_refs 1;
  t.cycles <- t.cycles + 1;
  Counters.bump t.counters Event.Cycles 1;
  if not (Cache.read t.icache addr) then begin
    Counters.bump t.counters Event.Icache_misses 1;
    t.cycles <- t.cycles + t.config.Config.icache_miss_penalty;
    Counters.bump t.counters Event.Cycles t.config.Config.icache_miss_penalty
  end

let load t ~addr =
  Counters.bump t.counters Event.Loads 1;
  Counters.bump t.counters Event.Dcache_reads 1;
  if not (Cache.read t.dcache addr) then begin
    Counters.bump t.counters Event.Dcache_read_misses 1;
    Counters.bump t.counters Event.Dcache_misses 1;
    t.cycles <- t.cycles + t.config.Config.dcache_miss_penalty;
    Counters.bump t.counters Event.Cycles t.config.Config.dcache_miss_penalty
  end

let store t ~addr =
  Counters.bump t.counters Event.Stores 1;
  Counters.bump t.counters Event.Dcache_writes 1;
  let hit = Cache.write t.dcache addr in
  if not hit then begin
    Counters.bump t.counters Event.Dcache_write_misses 1;
    Counters.bump t.counters Event.Dcache_misses 1
  end;
  let drain =
    if hit then t.config.Config.store_drain_cycles
    else t.config.Config.store_drain_miss_cycles
  in
  let stall = Store_buffer.push t.store_buffer ~now:t.cycles ~drain in
  spend t Event.Store_buffer_stalls stall

(* Batched per-block event replay for the compiled engine.

   A fetch run covers consecutive instruction slots with no intervening
   machine event; it is applied as bulk counter bumps plus one icache
   probe per distinct cache line.  Skipped probes are repeats of the line
   just read with no other icache access in between, so they would always
   hit and touch a line that is already most-recent: tags, relative LRU
   order and the miss count are exactly those of per-slot probes.  All
   clock-sensitive events (stores, FP issue/use) stay individual and in
   original program order, so store-buffer and scoreboard stalls see the
   same [now] as the per-instruction interpreter. *)
type block_op =
  | Bfetch of { count : int; leaders : int array }
      (** [count] instruction fetches; [leaders] holds the first address
          of each distinct icache line in the run, in order *)
  | Bload of int  (** data read; operand index into the dynamic buffer *)
  | Bstore of int  (** data write; operand index into the dynamic buffer *)
  | Bfp_issue of { cls : Fp_unit.op_class; dst : int; s1 : int; s2 : int }
  | Bfp_use of int
  | Bfp_define of int

(* Pre-resolved counter indices for the batched entry points below. *)
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

(* [fetch]/[load]/[store] with pre-resolved indices and allocation-free
   probes, for the compiled engine's hot paths (the precise tier and
   [block_step]'s ordered replay).  Same observable behaviour. *)
let fetch_hot t ~addr =
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

let load_hot t ~addr =
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

let store_hot t ~addr =
  let tot = t.totals in
  badd tot ix_stores 1;
  badd tot ix_dcwrites 1;
  let hit = Cache.write_hot t.dcache addr in
  if not hit then begin
    badd tot ix_dcwritemiss 1;
    badd tot ix_dcmiss 1
  end;
  let drain = if hit then t.sd_hit else t.sd_miss in
  let stall = Store_buffer.push t.store_buffer ~now:t.cycles ~drain in
  if stall > 0 then begin
    t.cycles <- t.cycles + stall;
    badd tot ix_cycles stall;
    badd tot ix_sbstalls stall
  end

(* A run of [count] fetches inside a runtime stub of [slots] instruction
   slots at [addr], wrapping like a loop inside it.  Nothing else touches
   the icache during the run and nothing reads the clock, so it is
   applied as bulk bumps plus one probe per change of line: a skipped
   probe re-reads the line probed just before, which would hit and touch
   a line that is already the most recent in its set — tags, relative
   LRU order and the miss count match [count] calls of [fetch]. *)
let fetch_run t ~addr ~slots ~count =
  if count > 0 then begin
    let tot = t.totals and ic = t.icache in
    let nslots = max 1 slots in
    let misses = ref 0 and last = ref (-1) in
    for i = 0 to count - 1 do
      let a = addr + (i mod nslots * 4) in
      let line = Cache.line ic a in
      if line <> !last then begin
        last := line;
        if not (Cache.read_hot ic a) then incr misses
      end
    done;
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
  let im = Cache.read_many t.icache leaders (Array.length leaders) in
  if im > 0 then begin
    badd tot ix_icmiss im;
    cycles := !cycles + (im * t.ic_pen)
  end;
  if nloads > 0 then begin
    badd tot ix_loads nloads;
    badd tot ix_dcreads nloads;
    let dm = Cache.read_many t.dcache dyn nloads in
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

let branch t ~addr ~taken =
  Counters.bump t.counters Event.Branches 1;
  if not (Branch_pred.predict_and_update t.branch_pred ~addr ~taken) then begin
    Counters.bump t.counters Event.Branch_mispredicts 1;
    spend t Event.Mispredict_stalls t.config.Config.mispredict_penalty
  end

(* [branch] with pre-resolved counter indices, for compiled block
   terminators.  Same observable behaviour. *)
let branch_hot t ~addr ~taken =
  let tot = t.totals in
  badd tot ix_branches 1;
  if not (Branch_pred.predict_and_update t.branch_pred ~addr ~taken) then begin
    badd tot ix_brmiss 1;
    let p = t.mp_pen in
    if p > 0 then begin
      t.cycles <- t.cycles + p;
      badd tot ix_cycles p;
      badd tot ix_mpstalls p
    end
  end

let fp_issue t ~cls ~dst ~srcs =
  Counters.bump t.counters Event.Fp_ops 1;
  let stall = Fp_unit.issue t.fp ~now:t.cycles ~cls ~dst ~srcs in
  spend t Event.Fp_stalls stall

let fp_use t ~src =
  let stall = Fp_unit.use t.fp ~now:t.cycles ~src in
  spend t Event.Fp_stalls stall

let fp_define t ~dst = Fp_unit.define t.fp ~now:t.cycles ~dst

(* FP issue/use with pre-resolved indices; [fp_issue_hot] is specialised
   to the two sources every [Fbinop] has.  Same observable behaviour. *)
let fp_issue_hot t ~cls ~dst ~s1 ~s2 =
  let tot = t.totals in
  badd tot ix_fpops 1;
  let stall = Fp_unit.issue2 t.fp ~now:t.cycles ~cls ~dst ~s1 ~s2 in
  if stall > 0 then begin
    t.cycles <- t.cycles + stall;
    badd tot ix_cycles stall;
    badd tot ix_fpstalls stall
  end

let fp_use_hot t ~src =
  let stall = Fp_unit.use t.fp ~now:t.cycles ~src in
  if stall > 0 then begin
    let tot = t.totals in
    t.cycles <- t.cycles + stall;
    badd tot ix_cycles stall;
    badd tot ix_fpstalls stall
  end

let fp_frame t ~nregs =
  Fp_unit.ensure t.fp ~nregs;
  Fp_unit.clear t.fp

(* Static event totals of an ordered block or segment, applied in one
   call: counters are only read at block boundaries (the epilogue's
   budget check and telemetry) and by observers (calls, runtime stubs,
   PIC access), and the compiled tier flushes a segment before every
   observer, so the fixed per-event bumps commute with the ordered probe
   walk below even though the clock does not. *)
let block_static t ~insts ~loads ~stores ~fpops =
  let tot = t.totals in
  badd tot ix_insts insts;
  badd tot ix_icrefs insts;
  if loads > 0 then begin
    badd tot ix_loads loads;
    badd tot ix_dcreads loads
  end;
  if stores > 0 then begin
    badd tot ix_stores stores;
    badd tot ix_dcwrites stores
  end;
  if fpops > 0 then badd tot ix_fpops fpops

(* The ordered walk for batched blocks with clock-reading events: probes,
   stalls and the clock advance in program order.  The static event bumps
   are NOT applied here — the caller pairs this with [block_static]. *)
let block_step t ops ~dyn =
  let tot = t.totals in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Bfetch { count; leaders } ->
        let cycles = ref count in
        let penalty = t.ic_pen in
        for j = 0 to Array.length leaders - 1 do
          if not (Cache.read_hot t.icache (Array.unsafe_get leaders j))
          then begin
            badd tot ix_icmiss 1;
            cycles := !cycles + penalty
          end
        done;
        t.cycles <- t.cycles + !cycles;
        badd tot ix_cycles !cycles
    | Bload s ->
        if not (Cache.read_hot t.dcache (Array.unsafe_get dyn s)) then begin
          badd tot ix_dcreadmiss 1;
          badd tot ix_dcmiss 1;
          let p = t.dc_pen in
          t.cycles <- t.cycles + p;
          badd tot ix_cycles p
        end
    | Bstore s ->
        let hit = Cache.write_hot t.dcache (Array.unsafe_get dyn s) in
        if not hit then begin
          badd tot ix_dcwritemiss 1;
          badd tot ix_dcmiss 1
        end;
        let drain = if hit then t.sd_hit else t.sd_miss in
        let stall = Store_buffer.push t.store_buffer ~now:t.cycles ~drain in
        if stall > 0 then begin
          t.cycles <- t.cycles + stall;
          badd tot ix_cycles stall;
          badd tot ix_sbstalls stall
        end
    | Bfp_issue { cls; dst; s1; s2 } ->
        let stall = Fp_unit.issue2 t.fp ~now:t.cycles ~cls ~dst ~s1 ~s2 in
        if stall > 0 then begin
          t.cycles <- t.cycles + stall;
          badd tot ix_cycles stall;
          badd tot ix_fpstalls stall
        end
    | Bfp_use src ->
        let stall = Fp_unit.use t.fp ~now:t.cycles ~src in
        if stall > 0 then begin
          t.cycles <- t.cycles + stall;
          badd tot ix_cycles stall;
          badd tot ix_fpstalls stall
        end
    | Bfp_define dst -> Fp_unit.define t.fp ~now:t.cycles ~dst
  done

let reset t =
  Cache.clear t.dcache;
  Cache.clear t.icache;
  Branch_pred.clear t.branch_pred;
  Store_buffer.clear t.store_buffer;
  Fp_unit.clear t.fp;
  Counters.clear t.counters;
  t.cycles <- 0
