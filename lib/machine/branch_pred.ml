(* Counter states: 0 strongly-not-taken, 1 weakly-not-taken, 2 weakly-taken,
   3 strongly-taken. *)
type t = { mask : int; counters : int array }

let weakly_taken = 2

let create ~table_size =
  if table_size <= 0 || table_size land (table_size - 1) <> 0 then
    invalid_arg "Branch_pred.create: table size must be a power of two";
  { mask = table_size - 1; counters = Array.make table_size weakly_taken }

let[@inline] predict_and_update t ~addr ~taken =
  (* Instructions are 4 bytes; drop the low bits so consecutive branches use
     different entries. *)
  let idx = (addr lsr 2) land t.mask in
  let c = Array.unsafe_get t.counters idx in
  let predicted_taken = c >= 2 in
  Array.unsafe_set t.counters idx
    (if taken then if c < 3 then c + 1 else 3
     else if c > 0 then c - 1
     else 0);
  predicted_taken = taken
