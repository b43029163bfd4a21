module Machine = Pp_machine.Machine
module Counters = Pp_machine.Counters
module Cct = Pp_core.Cct
module Layout = Pp_ir.Layout
module I = Pp_ir.Instr

type record_data = {
  addr : int;
  metrics : int array;
  paths : (int, int ref) Hashtbl.t;
  mutable ptable_addr : int;
}

type path_cells = { mutable freq : int; mutable m0 : int; mutable m1 : int }

type table_info =
  | Hash_table of {
      counts : (int, path_cells) Hashtbl.t;
      buckets_addr : int;
      nbuckets : int;
    }
  | Cct_table of { npaths : int }

(* Per-activation shadow record, parallel to the CCT's own stack. *)
type activation = {
  saved_gcsp : (int * bool) option;  (* (site, indirect) in effect before *)
  mutable pic0_at_entry : int;
  mutable pic1_at_entry : int;
}

(* The profiling-segment allocation cursor is shared between the CCT's
   record allocator (a closure created before [t] exists) and the table
   allocators. *)
type cursor = { mutable bump : int; mutable allocated : int }

type t = {
  machine : Machine.t;
  cct : record_data Cct.t;
  tables : (int, table_info) Hashtbl.t;
  table_of_proc : (string, int) Hashtbl.t;
  mutable gcsp : (int * bool) option;  (* pending (site, indirect) *)
  mutable shadow : activation list;
  cursor : cursor;
}

let alloc_from cursor words =
  let addr = cursor.bump in
  cursor.bump <- cursor.bump + (words * Layout.word);
  cursor.allocated <- cursor.allocated + (words * Layout.word);
  addr

let create ?(merge_call_sites = false) ~machine ~memory:_ ~prof_base () =
  let cursor = { bump = prof_base; allocated = 0 } in
  let make_data ~proc:_ ~nsites =
    {
      addr = alloc_from cursor (Layout.record_words nsites);
      metrics = Array.make 3 0;
      paths = Hashtbl.create 8;
      ptable_addr = 0;
    }
  in
  let cct = Cct.create ~merge_call_sites ~make_data () in
  {
    machine;
    cct;
    tables = Hashtbl.create 16;
    table_of_proc = Hashtbl.create 16;
    gcsp = None;
    shadow = [];
    cursor;
  }

let alloc t words = alloc_from t.cursor words

(* Dynamic instruction charges execute within the stub's code footprint,
   wrapping around like a loop inside it. *)
let charge_fetches t ~op_addr ~slots ~count =
  Machine.fetch_run t.machine ~addr:op_addr ~slots ~count

(* Every stub but Cct_enter executes its whole footprint once. *)
let charge_stub t ~op_addr slots = charge_fetches t ~op_addr ~slots ~count:slots

let load t addr = Machine.load t.machine ~addr
let store t addr = Machine.store t.machine ~addr

let register_hash_table t ~table ~proc =
  let nbuckets = 4096 in
  let buckets_addr = alloc t nbuckets in
  Hashtbl.replace t.tables table
    (Hash_table { counts = Hashtbl.create 64; buckets_addr; nbuckets });
  Hashtbl.replace t.table_of_proc proc table

let register_cct_table t ~table ~proc ~npaths =
  Hashtbl.replace t.tables table (Cct_table { npaths });
  Hashtbl.replace t.table_of_proc proc table

let cct_call t ~site ~indirect ~op_addr =
  charge_stub t ~op_addr I.cct_call_slots;
  t.gcsp <- Some (site, indirect)

let cct_enter t ~proc_name ~nsites ~op_addr ~fp =
  let site, indirect =
    match t.gcsp with
    | Some (s, i) -> (s, i)
    | None -> (0, false)  (* the initial call of main, through root slot 0 *)
  in
  let parent = Cct.current t.cct in
  let parent_data = Cct.data parent in
  (* Load the callee slot (the tag dispatch of Figure 7). *)
  load t (parent_data.addr + ((5 + site) * Layout.word));
  let slot_hit = Cct.has_edge t.cct ~proc:proc_name ~site in
  let before = Cct.num_nodes t.cct in
  let kind = if indirect then Cct.Indirect else Cct.Direct in
  let node = Cct.enter t.cct ~proc:proc_name ~nsites ~site ~kind in
  let data = Cct.data node in
  let allocated = Cct.num_nodes t.cct > before in
  (* Cost model: the base instructions; a slot miss walks the parent chain
     looking for a recursive instance (the per-ancestor instructions, the
     whole chain when nothing is found and a record is allocated); a fresh
     record costs initialising stores for its header and slots. *)
  let ancestors_walked =
    if slot_hit then 0
    else if allocated then Cct.node_depth parent + 1
    else Cct.node_depth parent - Cct.node_depth node + 1
  in
  charge_fetches t ~op_addr ~slots:I.cct_enter_slots
    ~count:(I.cct_enter_base + (I.cct_enter_per_ancestor * ancestors_walked));
  (* The walk itself loads each visited ancestor's header. *)
  let rec touch n remaining =
    if remaining > 0 then begin
      load t (Cct.data n : record_data).addr;
      match Cct.parent n with
      | Some p -> touch p (remaining - 1)
      | None -> ()
    end
  in
  touch parent ancestors_walked;
  if allocated then
    for i = 0 to Layout.record_words nsites - 1 do
      store t (data.addr + (i * Layout.word))
    done;
  (* Store the resolved pointer back into the slot, bump the entry count,
     save the old gCSP in the frame's linkage area. *)
  store t (parent_data.addr + ((5 + site) * Layout.word));
  data.metrics.(0) <- data.metrics.(0) + 1;
  store t (data.addr + (2 * Layout.word));
  store t fp;
  t.shadow <-
    { saved_gcsp = t.gcsp; pic0_at_entry = 0; pic1_at_entry = 0 } :: t.shadow;
  t.gcsp <- None

let cct_exit t ~op_addr ~fp =
  charge_stub t ~op_addr I.cct_exit_slots;
  load t fp;
  (match t.shadow with
  | act :: rest ->
      t.gcsp <- act.saved_gcsp;
      t.shadow <- rest
  | [] -> invalid_arg "Runtime.cct_exit: no active instrumented frame");
  Cct.exit t.cct

let counters t = Machine.counters t.machine

let cct_metric_enter t ~op_addr ~fp =
  charge_stub t ~op_addr I.metric_enter_slots;
  (match t.shadow with
  | act :: _ ->
      act.pic0_at_entry <- Counters.read_pic (counters t) 0;
      act.pic1_at_entry <- Counters.read_pic (counters t) 1
  | [] -> invalid_arg "Runtime.cct_metric_enter: no active frame");
  store t (fp + Layout.word);
  store t (fp + (2 * Layout.word))

let mask32 = 0xFFFF_FFFF

let accumulate_deltas t act =
  let node = Cct.current t.cct in
  let data = Cct.data node in
  let c = counters t in
  let d0 = (Counters.read_pic c 0 - act.pic0_at_entry) land mask32 in
  let d1 = (Counters.read_pic c 1 - act.pic1_at_entry) land mask32 in
  data.metrics.(1) <- data.metrics.(1) + d0;
  data.metrics.(2) <- data.metrics.(2) + d1;
  (* Two read-modify-write accumulators in the record. *)
  load t (data.addr + (3 * Layout.word));
  store t (data.addr + (3 * Layout.word));
  load t (data.addr + (4 * Layout.word));
  store t (data.addr + (4 * Layout.word))

let cct_metric_exit t ~op_addr ~fp =
  charge_stub t ~op_addr I.metric_exit_slots;
  load t (fp + Layout.word);
  load t (fp + (2 * Layout.word));
  match t.shadow with
  | act :: _ -> accumulate_deltas t act
  | [] -> invalid_arg "Runtime.cct_metric_exit: no active frame"

let cct_metric_backedge t ~op_addr ~fp =
  charge_stub t ~op_addr I.metric_backedge_slots;
  load t (fp + Layout.word);
  load t (fp + (2 * Layout.word));
  match t.shadow with
  | act :: _ ->
      accumulate_deltas t act;
      let c = counters t in
      act.pic0_at_entry <- Counters.read_pic c 0;
      act.pic1_at_entry <- Counters.read_pic c 1;
      store t (fp + Layout.word);
      store t (fp + (2 * Layout.word))
  | [] -> invalid_arg "Runtime.cct_metric_backedge: no active frame"

let find_table t table =
  match Hashtbl.find_opt t.tables table with
  | Some info -> info
  | None ->
      invalid_arg (Printf.sprintf "Runtime: unregistered table %d" table)

let bucket_addr base nbuckets key =
  (* Knuth multiplicative hash; deterministic across runs. *)
  base + (key * 2654435761 land max_int mod nbuckets * Layout.word)

let path_commit_hash t ~table ~key ~hw ~op_addr =
  match find_table t table with
  | Cct_table _ -> invalid_arg "Runtime.path_commit_hash: wrong table kind"
  | Hash_table { counts; buckets_addr; nbuckets } ->
      let slots =
        if hw then I.commit_hash_hw_slots else I.commit_hash_slots
      in
      charge_stub t ~op_addr slots;
      let baddr = bucket_addr buckets_addr nbuckets key in
      load t baddr;
      let cells =
        match Hashtbl.find_opt counts key with
        | Some c -> c
        | None ->
            let c = { freq = 0; m0 = 0; m1 = 0 } in
            Hashtbl.replace counts key c;
            (* A new chain entry: 3 cells + link. *)
            ignore (alloc t 4);
            c
      in
      cells.freq <- cells.freq + 1;
      store t baddr;
      if hw then begin
        let c = counters t in
        cells.m0 <- cells.m0 + Counters.read_pic c 0;
        cells.m1 <- cells.m1 + Counters.read_pic c 1;
        load t (baddr + Layout.word);
        store t (baddr + Layout.word);
        Counters.zero_pics c
      end

let path_commit_cct t ~table ~key ~op_addr =
  match find_table t table with
  | Hash_table _ -> invalid_arg "Runtime.path_commit_cct: wrong table kind"
  | Cct_table { npaths } ->
      charge_stub t ~op_addr I.commit_cct_slots;
      let node = Cct.current t.cct in
      let data = Cct.data node in
      let cap = min npaths 4096 in
      if data.ptable_addr = 0 then
        (* First path committed in this context: allocate the record's
           table (capped, as PP's hashing caps path-rich procedures). *)
        data.ptable_addr <- alloc t cap;
      let cell = data.ptable_addr + (key mod cap * Layout.word) in
      load t cell;
      store t cell;
      (match Hashtbl.find_opt data.paths key with
      | Some r -> incr r
      | None -> Hashtbl.replace data.paths key (ref 1))

let cct t = t.cct

let hash_table_counts t ~table =
  match Hashtbl.find_opt t.tables table with
  | Some (Hash_table { counts; _ }) ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  | Some (Cct_table _) | None -> raise Not_found

let prof_bytes_allocated t = t.cursor.allocated
