module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Event = Pp_machine.Event
module Profile_io = Pp_core.Profile_io
module Cct = Pp_core.Cct
module Report = Pp_core.Report

type config = Base | Mode of Instrument.mode

let config_name = function
  | Base -> "base"
  | Mode m -> Instrument.mode_name m

let all_configs = Base :: List.map (fun m -> Mode m) Instrument.all_modes

type task = { workload : string; config : config }

type cell = {
  instructions : int;
  cycles : int;
  pic0 : int;
  pic1 : int;
  detail : string;  (** per-mode headline: paths/records/traversals *)
  saved : Profile_io.saved option;
      (** the shard's path profile, when the mode collects one *)
}

let tasks ?workloads ?(configs = all_configs) () =
  let workloads =
    match workloads with
    | Some names -> names
    | None -> List.map (fun (w : W.t) -> w.W.name) Registry.all
  in
  List.concat_map
    (fun workload -> List.map (fun config -> { workload; config }) configs)
    workloads

let default_budget = 400_000_000

let counter counters e = try List.assoc e counters with Not_found -> 0

(* Worker-side metrics: recorded into [Metrics.default] so the pool
   ships them back to the parent.  Deterministic values only (simulated
   cycles/instructions), never wall clock — the dump must be
   byte-identical at any --jobs. *)
let record_metrics task (c : cell) =
  let m = Pp_telemetry.Metrics.default in
  Pp_telemetry.Metrics.incr m "matrix.cells" 1;
  Pp_telemetry.Metrics.incr m
    (Printf.sprintf "matrix.%s.instructions" (config_name task.config))
    c.instructions;
  Pp_telemetry.Metrics.observe m "matrix.cycles" c.cycles

let measure_cell ?(budget = default_budget) ?engine task =
  let w =
    match Registry.find task.workload with
    | Some w -> w
    | None -> failwith (Printf.sprintf "unknown workload %S" task.workload)
  in
  let prog = W.compile w in
  let e0, e1 = Driver.default_pics in
  match task.config with
  | Base ->
      let r = Driver.run_baseline ~max_instructions:budget ?engine prog in
      {
        instructions = r.Interp.instructions;
        cycles = r.Interp.cycles;
        pic0 = counter r.Interp.counters e0;
        pic1 = counter r.Interp.counters e1;
        detail = "";
        saved = None;
      }
  | Mode mode ->
      let session =
        Driver.prepare ~max_instructions:budget ?engine ~mode prog
      in
      let r = Driver.run session in
      let detail, saved =
        match mode with
        | Instrument.Flow_freq | Instrument.Flow_hw
        | Instrument.Context_flow ->
            let saved = Driver.saved_profile session in
            let paths =
              List.fold_left
                (fun acc (_, _, paths) -> acc + List.length paths)
                0 saved.Profile_io.procs
            in
            (Printf.sprintf "%d executed paths" paths, Some saved)
        | Instrument.Edge_freq ->
            let traversals =
              List.fold_left
                (fun acc (_, _, edges) ->
                  List.fold_left (fun acc (_, c) -> acc + c) acc edges)
                0
                (Driver.edge_profile session)
            in
            (Printf.sprintf "%d edge traversals" traversals, None)
        | Instrument.Context_hw ->
            ( Printf.sprintf "%d call records"
                (Cct.num_nodes (Driver.cct session) - 1),
              None )
      in
      let detail =
        match mode with
        | Instrument.Context_flow ->
            Printf.sprintf "%s, %d call records" detail
              (Cct.num_nodes (Driver.cct session) - 1)
        | _ -> detail
      in
      {
        instructions = r.Interp.instructions;
        cycles = r.Interp.cycles;
        pic0 = counter r.Interp.counters e0;
        pic1 = counter r.Interp.counters e1;
        detail;
        saved;
      }

let measure ?budget ?engine task =
  let cell = measure_cell ?budget ?engine task in
  record_metrics task cell;
  cell

let run_footer ?jobs ?timeout ?budget ?engine tasks =
  let outcomes, stats =
    Pool.map_stats ?jobs ?timeout (measure ?budget ?engine) tasks
  in
  (List.map2 (fun t o -> (t, o)) tasks outcomes, Pool.footer stats)

(* The report is a pure function of the outcome list, which the pool returns
   in task order: byte-identical output at any --jobs. *)
let report results =
  let rows =
    List.concat_map
      (fun (t, outcome) ->
        let row =
          match outcome with
          | Pool.Done c ->
              `Row
                [
                  t.workload;
                  config_name t.config;
                  string_of_int c.instructions;
                  string_of_int c.cycles;
                  string_of_int c.pic0;
                  string_of_int c.pic1;
                  c.detail;
                ]
          | (Pool.Crashed _ | Pool.Timed_out _) as o ->
              `Row
                [ t.workload; config_name t.config; "-"; "-"; "-"; "-";
                  Pool.describe o ]
        in
        let sep =
          (* Rule between workloads, matching the task grouping. *)
          match t.config with
          | Mode Instrument.Context_flow -> [ `Sep ]
          | _ -> []
        in
        (row :: sep))
      results
  in
  Report.render
    ~columns:
      [
        ("Workload", Report.Left);
        ("Config", Report.Left);
        ("Insts", Report.Right);
        ("Cycles", Report.Right);
        ("DC misses", Report.Right);
        ("Insts(PIC)", Report.Right);
        ("Profile", Report.Left);
      ]
    ~rows

let failures results =
  List.filter_map
    (fun (t, o) ->
      match o with
      | Pool.Done _ -> None
      | o ->
          Some
            (Printf.sprintf "%s/%s %s" t.workload (config_name t.config)
               (Pool.describe o)))
    results
