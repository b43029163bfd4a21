module Crc32 = Pp_core.Crc32
module Profile_io = Pp_core.Profile_io
module Interp = Pp_vm.Interp
module Engine = Pp_vm.Engine
module Event = Pp_machine.Event
module Metrics = Pp_telemetry.Metrics

let path ~dir k = Filename.concat dir (Printf.sprintf "shard-%d.ckpt" k)

(* {!Crc32.frame}d records:
     ckpt 2 <shard> <key> <instructions> <cycles> <nrecords>
     out i <int> | out f <hexfloat>
     counter <event-name> <value>
   Floats are emitted as %h hex literals so they round-trip exactly —
   a resumed run must reprint byte-identical output. *)

let encode ~key k (r : Interp.result) =
  Crc32.frame
    (Printf.sprintf "ckpt 2 %d %s %d %d" k key r.Interp.instructions
       r.Interp.cycles)
    (List.map
       (function
         | Interp.Oint n -> Printf.sprintf "out i %d" n
         | Interp.Ofloat x -> Printf.sprintf "out f %h" x)
       r.Interp.output
    @ List.map
        (fun (e, v) -> Printf.sprintf "counter %s %d" (Event.name e) v)
        r.Interp.counters)

let save ~dir ~key k r =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Crc32.write_atomic (path ~dir k) (encode ~key k r)

(* Strict decoding: any surprise — a damaged, missing or unknown record,
   another shard's or configuration's header — yields None and the shard
   reruns. *)
let decode ~key k text =
  let output = ref [] and counters = ref [] in
  let push acc x =
    Option.iter (fun x -> acc := x :: !acc) x;
    x <> None
  in
  let record _ line =
    match String.split_on_char ' ' line with
    | [ "out"; "i"; n ] ->
        push output (Option.map (fun n -> Interp.Oint n) (int_of_string_opt n))
    | [ "out"; "f"; x ] ->
        push output (Option.map (fun x -> Interp.Ofloat x) (float_of_string_opt x))
    | [ "counter"; e; v ] ->
        push counters
          (match (Event.of_name e, int_of_string_opt v) with
          | Some e, Some v -> Some (e, v)
          | _ -> None)
    | _ -> false
  in
  match Crc32.unframe ~record text with
  | Ok (header, None) -> (
      match
        Scanf.sscanf_opt header "ckpt 2 %d %s %d %d%!" (fun k' key' i c ->
            (k', key', i, c))
      with
      | Some (k', key', instructions, cycles) when k' = k && key' = key ->
          Some
            {
              Interp.instructions;
              cycles;
              output = List.rev !output;
              counters = List.rev !counters;
            }
      | _ -> None)
  | Ok (_, Some _) | Error _ -> None

let load ~dir ~key k =
  match In_channel.with_open_bin (path ~dir k) In_channel.input_all with
  | text -> decode ~key k text
  | exception Sys_error _ -> None

(* --- the sharded run --- *)

let run_once ?engine ~budget prog =
  let r = Engine.run (Engine.create ?kind:engine ~max_instructions:budget prog) in
  Metrics.incr Metrics.default "run.instructions" r.Interp.instructions;
  Metrics.incr Metrics.default "run.cycles" r.Interp.cycles;
  r

type report = {
  shards : int;
  resumed : int;
  failed : (int * string) list;
  completed : int;
  total : Interp.result option;
  divergent : int list;
  footer : string;
}

let degraded r = r.completed < r.shards

(* Sum per-event counters across shards (events in [a]'s order). *)
let add_counters a b =
  List.map (fun (e, v) -> (e, v + Option.value ~default:0 (List.assoc_opt e b))) a

let run ?dir ?engine ~budget ?(jobs = 1) ?(retries = 1) ~shards prog =
  let key = Printf.sprintf "%s:%d" (Profile_io.program_hash prog) budget in
  let results =
    Array.init shards (fun k -> Option.bind dir (fun dir -> load ~dir ~key k))
  in
  let missing = List.filter (fun k -> results.(k) = None) (List.init shards Fun.id) in
  let outcomes, stats =
    Pool.map_retry ~jobs ~retries
      (fun ~attempt:_ k ->
        let r = run_once ?engine ~budget prog in
        (* Persist from the worker, the moment the shard completes: a run
           killed mid-flight still leaves every finished shard resumable,
           and the atomic write can never leave a torn checkpoint. *)
        Option.iter (fun dir -> save ~dir ~key k r) dir;
        r)
      missing
  in
  let failed =
    List.concat
      (List.map2
         (fun k o ->
           match o with
           | Pool.Done r ->
               results.(k) <- Some r;
               []
           | o -> [ (k, Pool.describe o) ])
         missing outcomes)
  in
  (* Summing in shard order keeps the total byte-identical whichever
     shards were resumed. *)
  let ok = List.filter_map Fun.id (Array.to_list results) in
  let total, divergent =
    match ok with
    | [] -> (None, [])
    | first :: rest ->
        Metrics.set_gauge Metrics.default "run.shards" shards;
        let sum f = List.fold_left (fun a r -> a + f r) 0 ok in
        ( Some
            {
              Interp.instructions = sum (fun r -> r.Interp.instructions);
              cycles = sum (fun r -> r.Interp.cycles);
              output = first.Interp.output;
              counters =
                List.fold_left
                  (fun acc r -> add_counters acc r.Interp.counters)
                  first.Interp.counters rest;
            },
          List.concat
            (List.mapi
               (fun i r ->
                 if r.Interp.output <> first.Interp.output then [ i ] else [])
               ok) )
  in
  {
    shards;
    resumed = shards - List.length missing;
    failed;
    completed = List.length ok;
    total;
    divergent;
    footer = Pool.footer stats;
  }
