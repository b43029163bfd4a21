module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Editor = Pp_instrument.Editor
module Interp = Pp_vm.Interp
module Runtime = Pp_vm.Runtime
module Event = Pp_machine.Event
module Config = Pp_machine.Config

type category = Editor.category =
  | Path_register
  | Table_commit
  | Cct_probe
  | Counter_read

let category_name = function
  | Path_register -> "path-register"
  | Table_commit -> "table-commit"
  | Cct_probe -> "cct-probe"
  | Counter_read -> "counter-read"

type mode_row = {
  mode : string;
  direct : (category * int) list;
  counters : (Event.t * int) list;
}

type report = {
  program : string;
  budget : int option;
  penalties : (Event.t * int) list;
  base : (Event.t * int) list;
  rows : mode_row list;
  failures : (string * string) list;
}

(* The machine issues one instruction per cycle and adds penalty cycles
   ({!Pp_machine.Machine}): a cache miss costs its cache's penalty, and a
   stall counter already counts cycles. *)
let penalties (c : Config.t) =
  [
    (Event.Icache_misses, c.Config.icache_miss_penalty);
    (Event.Dcache_read_misses, c.Config.dcache_miss_penalty);
    (Event.Mispredict_stalls, 1);
    (Event.Store_buffer_stalls, 1);
    (Event.Fp_stalls, 1);
  ]

let count counters e =
  match List.assoc_opt e counters with Some v -> v | None -> 0

let delta r row e = count row.counters e - count r.base e
let issue row = List.fold_left (fun acc (_, n) -> acc + n) 0 row.direct

let perturbation r row =
  List.map (fun (e, w) -> (e, w * delta r row e)) r.penalties

(* {2 Measurement} *)

(* Install a block probe that adds each entered block's inserted
   instructions ({!Instrument.proc_info.inserted}) to [direct]. *)
let count_inserted (session : Driver.session) direct =
  let inserted =
    List.map
      (fun (i : Instrument.proc_info) ->
        (i.Instrument.proc, i.Instrument.inserted))
      session.Driver.manifest.Instrument.infos
  in
  Interp.set_block_probe session.Driver.vm (fun ~proc ~label ->
      let block =
        match List.assoc_opt proc inserted with
        | Some blocks when label < Array.length blocks -> blocks.(label)
        | Some _ | None -> [||]
      in
      if Array.for_all (( = ) 0) block then fun ~frame:_ ~iregs:_ -> ()
      else fun ~frame:_ ~iregs:_ ->
        for i = 0 to Array.length block - 1 do
          direct.(i) <- direct.(i) + block.(i)
        done)

let measure_mode ?budget ?engine prog mode =
  let session = Driver.prepare ?max_instructions:budget ?engine ~mode prog in
  let direct = Array.make (List.length Editor.categories) 0 in
  count_inserted session direct;
  let r = Driver.run session in
  let walk = Runtime.cct_walk_insts (Interp.runtime session.Driver.vm) in
  {
    mode = Instrument.mode_name mode;
    direct =
      List.mapi
        (fun i c -> (c, direct.(i) + if c = Cct_probe then walk else 0))
        Editor.categories;
    counters = r.Interp.counters;
  }

let compute ?budget ?engine ?jobs ?(modes = Instrument.all_modes) ~program
    prog =
  let base =
    (Driver.run_baseline ?max_instructions:budget ?engine prog).Interp.counters
  in
  let outcomes =
    Pool.map ?jobs (fun mode -> measure_mode ?budget ?engine prog mode) modes
  in
  let rows, failures =
    List.fold_left2
      (fun (rows, failures) mode outcome ->
        match outcome with
        | Pool.Done row -> (row :: rows, failures)
        | (Pool.Crashed _ | Pool.Timed_out _) as o ->
            (rows, (Instrument.mode_name mode, Pool.describe o) :: failures))
      ([], []) modes outcomes
  in
  {
    program;
    budget;
    (* Neither Driver entry point is given a config: every run is on the
       default machine. *)
    penalties = penalties Config.default;
    base;
    rows = List.rev rows;
    failures = List.rev failures;
  }

(* {2 The two identities} *)

let check r =
  let cycle_residual counters =
    count counters Event.Cycles
    - count counters Event.Instructions
    - List.fold_left
        (fun acc (e, w) -> acc + (w * count counters e))
        0 r.penalties
  in
  let runs =
    ("baseline", r.base)
    :: List.map (fun row -> (row.mode, row.counters)) r.rows
  in
  let cycle_error (name, counters) =
    match cycle_residual counters with
    | 0 -> None
    | res ->
        Some
          (Printf.sprintf
             "%s: cycle identity residual %d (cycles minus instructions \
              minus event penalties)"
             name res)
  and insts_error row =
    match delta r row Event.Instructions - issue row with
    | 0 -> None
    | res ->
        Some
          (Printf.sprintf
             "%s: instruction identity residual %d (delta %d, probes \
              counted %d)"
             row.mode res
             (delta r row Event.Instructions)
             (issue row))
  in
  match List.find_map cycle_error runs with
  | Some msg -> Error msg
  | None -> (
      match List.find_map insts_error r.rows with
      | Some msg -> Error msg
      | None -> Ok ())

(* {2 Rendering} *)

let pct delta base =
  if base = 0 then 0.0 else float_of_int delta /. float_of_int base *. 100.0

let render r =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let cells width xs =
    String.concat "" (List.map (Printf.sprintf " %*s" width) xs)
  in
  let base_cycles = count r.base Event.Cycles
  and base_insts = count r.base Event.Instructions in
  line "overhead report for %s%s" r.program
    (match r.budget with
    | Some b -> Printf.sprintf " (budget %d)" b
    | None -> "");
  line "baseline: %d cycles, %d instructions" base_cycles base_insts;
  line "";
  line "overhead by mode (Table 1)";
  line "%-14s %12s %12s %9s %14s %9s" "mode" "cycles" "+cycles" "ovhd%"
    "instructions" "ovhd%";
  List.iter
    (fun row ->
      line "%-14s %12d %12d %8.1f%% %14d %8.1f%%" row.mode
        (count row.counters Event.Cycles)
        (delta r row Event.Cycles)
        (pct (delta r row Event.Cycles) base_cycles)
        (count row.counters Event.Instructions)
        (pct (delta r row Event.Instructions) base_insts))
    r.rows;
  List.iter (fun (m, why) -> line "%-14s %s" m why) r.failures;
  line "";
  line "instructions the probes retired, by category (one issue cycle each)";
  line "%-14s%s" "mode"
    (cells 14 (List.map category_name Editor.categories @ [ "+instructions" ]));
  List.iter
    (fun row ->
      line "%-14s%s" row.mode
        (cells 14
           (List.map
              (fun (_, n) -> string_of_int n)
              row.direct
           @ [ string_of_int (delta r row Event.Instructions) ])))
    r.rows;
  line "";
  line "cycle delta: issue + perturbation cycles by event";
  line "%-14s%s" "mode"
    (cells 17
       (("issue" :: List.map (fun (e, _) -> Event.name e) r.penalties)
       @ [ "+cycles" ]));
  List.iter
    (fun row ->
      line "%-14s%s" row.mode
        (cells 17
           (List.map string_of_int
              ((issue row :: List.map snd (perturbation r row))
              @ [ delta r row Event.Cycles ]))))
    r.rows;
  (match check r with
  | Ok () -> line "attribution: ok"
  | Error msg -> line "attribution: MISMATCH (%s)" msg);
  line "";
  line "event-counter perturbation (Table 2)";
  line "%-22s %14s%s" "event" "baseline"
    (cells 14 (List.map (fun row -> row.mode) r.rows));
  List.iter
    (fun (ev, bv) ->
      line "%-22s %14d%s" (Event.name ev) bv
        (cells 14
           (List.map
              (fun row -> string_of_int (count row.counters ev))
              r.rows)))
    r.base;
  Buffer.contents buf

(* {2 JSON} *)

let json_escape = Pp_telemetry.Trace.json_escape

let to_json r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let obj name kvs =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape (name k)) v)
         kvs)
  in
  let counters = obj Event.name in
  add "{\"program\":\"%s\"," (json_escape r.program);
  (match r.budget with
  | Some b -> add "\"budget\":%d," b
  | None -> add "\"budget\":null,");
  add "\"penalties\":{%s}," (counters r.penalties);
  add "\"baseline\":{\"cycles\":%d,\"instructions\":%d,\"counters\":{%s}},"
    (count r.base Event.Cycles)
    (count r.base Event.Instructions)
    (counters r.base);
  add "\"modes\":[";
  List.iteri
    (fun i row ->
      if i > 0 then add ",";
      add
        "{\"mode\":\"%s\",\"cycles\":%d,\"instructions\":%d,\"delta_cycles\":%d,\"delta_instructions\":%d,"
        (json_escape row.mode)
        (count row.counters Event.Cycles)
        (count row.counters Event.Instructions)
        (delta r row Event.Cycles)
        (delta r row Event.Instructions);
      add "\"overhead_pct\":%.4f,"
        (pct (delta r row Event.Cycles) (count r.base Event.Cycles));
      add "\"issue\":{%s}," (obj category_name row.direct);
      add "\"perturbation\":{%s}," (counters (perturbation r row));
      add "\"counters\":{%s}}" (counters row.counters))
    r.rows;
  add "],\"failures\":[";
  List.iteri
    (fun i (m, why) ->
      if i > 0 then add ",";
      add "{\"mode\":\"%s\",\"reason\":\"%s\"}" (json_escape m)
        (json_escape why))
    r.failures;
  add "],\"attribution_check\":\"%s\"}"
    (match check r with Ok () -> "ok" | Error _ -> "mismatch");
  Buffer.contents buf
