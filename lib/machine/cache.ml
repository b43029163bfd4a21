type t = {
  line_shift : int;
  set_mask : int;
  ways : int;
  tags : int array;  (* sets * ways; -1 = invalid *)
  stamp : int array;  (* LRU recency stamps, parallel to tags *)
  mutable clock : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (g : Config.cache_geometry) =
  let n_sets = g.size_bytes / (g.line_bytes * g.associativity) in
  {
    line_shift = log2 g.line_bytes;
    set_mask = n_sets - 1;
    ways = g.associativity;
    tags = Array.make (n_sets * g.associativity) (-1);
    stamp = Array.make (n_sets * g.associativity) 0;
    clock = 0;
  }

let line t addr = addr lsr t.line_shift

let find t addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let base = set * t.ways in
  let rec scan i =
    if i >= t.ways then None
    else if t.tags.(base + i) = line then Some (base + i)
    else scan (i + 1)
  in
  (base, line, scan 0)

let touch t slot =
  t.clock <- t.clock + 1;
  t.stamp.(slot) <- t.clock

let victim t base =
  (* Least-recently-used way in the set; empty ways are oldest of all since
     their stamp is 0 and the clock starts at 1. *)
  let best = ref base in
  for i = 1 to t.ways - 1 do
    if t.stamp.(base + i) < t.stamp.(!best) then best := base + i
  done;
  !best

let read t addr =
  let base, line, hit = find t addr in
  match hit with
  | Some slot ->
      touch t slot;
      true
  | None ->
      let slot = victim t base in
      t.tags.(slot) <- line;
      touch t slot;
      false

let write t addr =
  let _base, _line, hit = find t addr in
  match hit with
  | Some slot ->
      touch t slot;
      true
  | None ->
      false

(* Allocation-free variants of [read]/[write], the probes the machine
   model makes.  Same observable behaviour — hits, tags, stamps and
   clock advance exactly as in the reference [read]/[write]
   above — but the way scan is inlined so no option or tuple is boxed
   per probe. *)

let read_hot t addr =
  let line = addr lsr t.line_shift in
  let ways = t.ways in
  if ways = 1 then begin
    (* Direct-mapped: the set's one slot is both hit candidate and
       victim, and a read always stamps it. *)
    let set = line land t.set_mask in
    let clock = t.clock + 1 in
    t.clock <- clock;
    Array.unsafe_set t.stamp set clock;
    if Array.unsafe_get t.tags set = line then true
    else begin
      Array.unsafe_set t.tags set line;
      false
    end
  end
  else if ways = 2 then begin
    let base = (line land t.set_mask) * 2 in
    let tags = t.tags and stamp = t.stamp in
    let clock = t.clock + 1 in
    t.clock <- clock;
    if Array.unsafe_get tags base = line then begin
      Array.unsafe_set stamp base clock;
      true
    end
    else if Array.unsafe_get tags (base + 1) = line then begin
      Array.unsafe_set stamp (base + 1) clock;
      true
    end
    else begin
      (* LRU victim; ties pick the first way, as [victim] does. *)
      let v =
        if Array.unsafe_get stamp (base + 1) < Array.unsafe_get stamp base
        then base + 1
        else base
      in
      Array.unsafe_set tags v line;
      Array.unsafe_set stamp v clock;
      false
    end
  end
  else begin
    let base = (line land t.set_mask) * ways in
    let tags = t.tags in
    let rec scan i =
      if i >= ways then begin
          let slot = victim t base in
        Array.unsafe_set tags slot line;
        touch t slot;
        false
      end
      else if Array.unsafe_get tags (base + i) = line then begin
        touch t (base + i);
        true
      end
      else scan (i + 1)
    in
    scan 0
  end

let write_hot t addr =
  let line = addr lsr t.line_shift in
  let ways = t.ways in
  if ways = 1 then begin
    (* A write only stamps (and advances the clock) on a hit. *)
    let set = line land t.set_mask in
    if Array.unsafe_get t.tags set = line then begin
      let clock = t.clock + 1 in
      t.clock <- clock;
      Array.unsafe_set t.stamp set clock;
      true
    end
    else false
  end
  else if ways = 2 then begin
    let base = (line land t.set_mask) * 2 in
    let tags = t.tags in
    if Array.unsafe_get tags base = line then begin
      let clock = t.clock + 1 in
      t.clock <- clock;
      Array.unsafe_set t.stamp base clock;
      true
    end
    else if Array.unsafe_get tags (base + 1) = line then begin
      let clock = t.clock + 1 in
      t.clock <- clock;
      Array.unsafe_set t.stamp (base + 1) clock;
      true
    end
    else false
  end
  else begin
    let base = (line land t.set_mask) * ways in
    let tags = t.tags in
    let rec scan i =
      if i >= ways then false
      else if Array.unsafe_get tags (base + i) = line then begin
        touch t (base + i);
        true
      end
      else scan (i + 1)
    in
    scan 0
  end

(* One call per group of probes instead of one per probe:
   [read_many t addrs lo hi] reads [addrs.(lo..hi-1)] in order and returns
   how many missed.  State evolves exactly as successive [read]s; the
   common geometries (direct-mapped, 2-way) get tight specialised loops. *)

let read_many_direct t addrs lo hi =
  let tags = t.tags and stamp = t.stamp in
  let shift = t.line_shift and mask = t.set_mask in
  let clock = ref t.clock and misses = ref 0 in
  for i = lo to hi - 1 do
    let line = Array.unsafe_get addrs i lsr shift in
    let set = line land mask in
    if Array.unsafe_get tags set <> line then begin
      incr misses;
      Array.unsafe_set tags set line
    end;
    incr clock;
    Array.unsafe_set stamp set !clock
  done;
  t.clock <- !clock;
  !misses

let read_many_2way t addrs lo hi =
  let tags = t.tags and stamp = t.stamp in
  let shift = t.line_shift and mask = t.set_mask in
  let clock = ref t.clock and misses = ref 0 in
  for i = lo to hi - 1 do
    let line = Array.unsafe_get addrs i lsr shift in
    let base = (line land mask) * 2 in
    let slot =
      if Array.unsafe_get tags base = line then base
      else if Array.unsafe_get tags (base + 1) = line then base + 1
      else begin
        incr misses;
        (* LRU victim; ties pick the first way, as [victim] does. *)
        let v =
          if Array.unsafe_get stamp (base + 1) < Array.unsafe_get stamp base
          then base + 1
          else base
        in
        Array.unsafe_set tags v line;
        v
      end
    in
    incr clock;
    Array.unsafe_set stamp slot !clock
  done;
  t.clock <- !clock;
  !misses

let read_many t addrs lo hi =
  if t.ways = 1 then read_many_direct t addrs lo hi
  else if t.ways = 2 then read_many_2way t addrs lo hi
  else begin
    let misses = ref 0 in
    for i = lo to hi - 1 do
      if not (read_hot t (Array.unsafe_get addrs i)) then incr misses
    done;
    !misses
  end

let probe t addr =
  let _, _, hit = find t addr in
  hit <> None
