type t =
  | Cycles
  | Instructions
  | Dcache_reads
  | Dcache_read_misses
  | Dcache_writes
  | Dcache_write_misses
  | Dcache_misses
  | Icache_refs
  | Icache_misses
  | Branches
  | Branch_mispredicts
  | Mispredict_stalls
  | Store_buffer_stalls
  | Fp_ops
  | Fp_stalls
  | Loads
  | Stores

let count = 17

let to_int = function
  | Cycles -> 0
  | Instructions -> 1
  | Dcache_reads -> 2
  | Dcache_read_misses -> 3
  | Dcache_writes -> 4
  | Dcache_write_misses -> 5
  | Dcache_misses -> 6
  | Icache_refs -> 7
  | Icache_misses -> 8
  | Branches -> 9
  | Branch_mispredicts -> 10
  | Mispredict_stalls -> 11
  | Store_buffer_stalls -> 12
  | Fp_ops -> 13
  | Fp_stalls -> 14
  | Loads -> 15
  | Stores -> 16

let all =
  [
    Cycles;
    Instructions;
    Dcache_reads;
    Dcache_read_misses;
    Dcache_writes;
    Dcache_write_misses;
    Dcache_misses;
    Icache_refs;
    Icache_misses;
    Branches;
    Branch_mispredicts;
    Mispredict_stalls;
    Store_buffer_stalls;
    Fp_ops;
    Fp_stalls;
    Loads;
    Stores;
  ]

let name = function
  | Cycles -> "cycles"
  | Instructions -> "insts"
  | Dcache_reads -> "dc_reads"
  | Dcache_read_misses -> "dc_read_miss"
  | Dcache_writes -> "dc_writes"
  | Dcache_write_misses -> "dc_write_miss"
  | Dcache_misses -> "dc_miss"
  | Icache_refs -> "ic_refs"
  | Icache_misses -> "ic_miss"
  | Branches -> "branches"
  | Branch_mispredicts -> "br_mispredict"
  | Mispredict_stalls -> "mispredict_stalls"
  | Store_buffer_stalls -> "store_buf_stalls"
  | Fp_ops -> "fp_ops"
  | Fp_stalls -> "fp_stalls"
  | Loads -> "loads"
  | Stores -> "stores"

let of_name s = List.find_opt (fun e -> name e = s) all


