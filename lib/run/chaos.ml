module Profile_io = Pp_core.Profile_io
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Diag = Pp_ir.Diag

type shard_state =
  | Recovered
  | Salvaged of Profile_io.salvage_report
  | Lost of string

type report = {
  shards : int;
  stats : Pool.stats;
  footer : string;
  states : shard_state list;
  ok : int;
  salvaged : int;
  lost : int;
  identical : bool;
  merged : Profile_io.saved option;
  reference : Profile_io.saved;
}

let degraded r = r.salvaged > 0 || r.lost > 0

let coverage r =
  let covered = r.ok + r.salvaged in
  Printf.sprintf "coverage: %d/%d shards%s" covered r.shards
    (if degraded r then " (degraded)" else "")

let shard_path dir k = Filename.concat dir (Printf.sprintf "shard-%d.pprof" k)

let profile_once ?budget ?engine ~mode prog =
  let session = Driver.prepare ?max_instructions:budget ?engine ~mode prog in
  ignore (Driver.run session);
  Driver.saved_profile session

let run ~dir ?(mode = Instrument.Flow_hw) ?budget ?engine ?(jobs = 2)
    ?(retries = 3) ?(timeout = 10.0) ?sleep ~plan ~shards prog =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* Clear leftovers so a previous run can never mask a lost shard. *)
  for k = 0 to shards - 1 do
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ shard_path dir k; shard_path dir k ^ ".tmp" ]
  done;
  match profile_once ?budget ?engine ~mode prog with
  | exception e ->
      Error
        (Diag.error (Diag.proc_loc "<chaos>") "fault-free run failed: %s"
           (Printexc.to_string e))
  | one -> (
      match Profile_io.merge_all (List.init shards (fun _ -> one)) with
      | Error d -> Error d
      | Ok reference ->
          let task ~attempt k =
            let fault = Faults.fault_for plan ~task:k ~attempt in
            (match fault with
            | Some Faults.Crash -> failwith "injected crash"
            | Some (Faults.Stall s) -> Unix.sleepf s
            | _ -> ());
            let saved = profile_once ?budget ?engine ~mode prog in
            Profile_io.to_file
              ?fault:(Option.bind fault Faults.write_fault)
              (shard_path dir k) saved;
            k
          in
          (* The worker cannot see post-write corruption; the parent
             re-reads each shard strictly and demotes damage to a retry. *)
          let verify k _ =
            match Profile_io.of_file (shard_path dir k) with
            | _ -> Ok ()
            | exception Profile_io.Parse_error (_, msg) -> Error msg
            | exception Sys_error msg -> Error msg
          in
          let _, stats =
            Pool.map_retry ~jobs ~timeout ~retries ?sleep ~verify task
              (List.init shards (fun k -> k))
          in
          (* Read every shard back: strictly, else salvaging its valid
             record prefix. *)
          let read k =
            let path = shard_path dir k in
            match Profile_io.of_file path with
            | s -> (Recovered, [ s ])
            | exception Sys_error msg -> (Lost msg, [])
            | exception Profile_io.Parse_error _ -> (
                match Profile_io.salvage_file path with
                | Ok (s, Some rep) -> (Salvaged rep, [ s ])
                | Ok (s, None) -> (Recovered, [ s ])
                | Error d -> (Lost (Diag.to_string d), []))
          in
          let states, recovered = List.split (List.init shards read) in
          let count p = List.length (List.filter p states) in
          let ok = count (function Recovered -> true | _ -> false) in
          let salvaged = count (function Salvaged _ -> true | _ -> false) in
          let lost = count (function Lost _ -> true | _ -> false) in
          let merged =
            Result.to_option (Profile_io.merge_all (List.concat recovered))
          in
          let identical =
            match merged with
            | Some m ->
                Profile_io.to_string m = Profile_io.to_string reference
            | None -> false
          in
          Ok
            {
              shards;
              stats;
              footer = Pool.footer stats;
              states;
              ok;
              salvaged;
              lost;
              identical;
              merged;
              reference;
            })
