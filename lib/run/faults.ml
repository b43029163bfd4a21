module Crc32 = Pp_core.Crc32

type fault = Crash | Stall of float | Write of Crc32.fault

type kind = Crash_heavy | Corruption_heavy | Mixed

let kind_name = function
  | Crash_heavy -> "crash-heavy"
  | Corruption_heavy -> "corruption-heavy"
  | Mixed -> "mixed"

(* SplitMix64 finalizer over a fold of the inputs: avalanche quality is
   what makes per-(seed, task, attempt) draws independent.  Kept within
   62 bits (OCaml int) and masked non-negative. *)
let mask = (1 lsl 62) - 1

let mix xs =
  let golden = 0x1e3779b97f4a7c15 land mask in
  let z =
    List.fold_left (fun acc x -> (acc + (x land mask) + golden) land mask) 0 xs
  in
  let z = z lxor (z lsr 30) in
  let z = z * 0x3f58476d1ce4e5b9 land mask in
  let z = z lxor (z lsr 27) in
  let z = z * 0x14d049bb133111eb land mask in
  z lxor (z lsr 31)

let unit_float h = float_of_int (h land 0xfffffff) /. float_of_int 0x10000000

type plan = {
  kind : kind;
  seed : int;
  tasks : int;
  faults : fault option array;  (* by task index *)
}

let draw ~kind ~stall h =
  (* Two thirds of tasks fault; the fault is drawn from the kind's mix.
     Write offsets are re-mixed so they do not correlate with the fault
     choice. *)
  if unit_float (mix [ h; 1 ]) > 2.0 /. 3.0 then None
  else
    let pick = mix [ h; 2 ] in
    (* Bounded so plan listings stay readable; the writer takes it mod
       the file size anyway. *)
    let offset = mix [ h; 3 ] land 0xffff in
    let crash_fault =
      match pick mod 3 with
      | 0 -> Crash
      | 1 -> Stall stall
      | _ -> Write (Crc32.Crash_after offset)
    in
    let corrupt_fault =
      match pick mod 3 with
      | 0 -> Write Crc32.Torn_write
      | 1 -> Write (Crc32.Flip_bit offset)
      | _ -> Write (Crc32.Truncate_at offset)
    in
    match kind with
    | Crash_heavy -> Some crash_fault
    | Corruption_heavy -> Some corrupt_fault
    | Mixed -> Some (if pick land 8 = 0 then crash_fault else corrupt_fault)

let seeded ?(stall = 30.0) kind ~seed ~tasks =
  if tasks < 0 then invalid_arg "Faults.seeded: negative task count";
  {
    kind;
    seed;
    tasks;
    faults =
      Array.init tasks (fun task -> draw ~kind ~stall (mix [ seed; task ]));
  }

let fault_for plan ~task ~attempt =
  if attempt > 1 || task < 0 || task >= Array.length plan.faults
  then None
  else plan.faults.(task)

let count plan =
  Array.fold_left
    (fun acc f -> if f = None then acc else acc + 1)
    0 plan.faults

let describe = function
  | Crash -> "crash before any work"
  | Stall s -> Printf.sprintf "stall %.1fs (past the timeout)" s
  | Write (Crc32.Crash_after _) ->
      "killed mid-write (temp left, destination untouched)"
  | Write Crc32.Torn_write -> "torn non-atomic write at the destination"
  | Write (Crc32.Flip_bit k) ->
      Printf.sprintf "bit %d of the written shard flipped" k
  | Write (Crc32.Truncate_at k) ->
      Printf.sprintf "written shard truncated (offset %d)" k

let summary plan =
  Printf.sprintf "%s seed %d: %d of %d tasks faulted" (kind_name plan.kind)
    plan.seed (count plan) plan.tasks

let describe_plan plan =
  Array.to_list plan.faults
  |> List.mapi (fun task f ->
         Option.map
           (fun f -> Printf.sprintf "shard %d: %s" task (describe f))
           f)
  |> List.filter_map Fun.id
