let num_sets (g : Config.cache_geometry) =
  g.size_bytes / (g.line_bytes * g.associativity)

let line_of (g : Config.cache_geometry) addr = addr / g.line_bytes
let set_of_line g line = line mod num_sets g
let same_set g l1 l2 = set_of_line g l1 = set_of_line g l2

let lines_of_range g ~addr ~bytes =
  if bytes <= 0 then []
  else begin
    let first = line_of g addr in
    let last = line_of g (addr + bytes - 1) in
    let rec collect l acc = if l < first then acc else collect (l - 1) (l :: acc) in
    collect last []
  end

let store_stall_bound (c : Config.t) =
  c.store_buffer_entries * c.store_drain_miss_cycles

let fp_stall_bound (c : Config.t) =
  max c.fp_add_latency (max c.fp_mul_latency c.fp_div_latency)

let mispredict_bound (c : Config.t) = c.mispredict_penalty
