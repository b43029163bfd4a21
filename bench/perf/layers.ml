(* Per-layer numbers read off a trace: self time per layer from nested
   spans, inclusive time and call count per span name, and the counters
   {!Surface} records beside each call. *)

module Trace = Pp_telemetry.Trace

(* The layers, each named by the span prefix that marks it.  [bench] is
   the harness itself: set-up, item bookkeeping and output checks. *)
let names =
  [
    "bench"; "minic"; "feasibility"; "instrument"; "vm.setup"; "execute";
    "extract"; "codec.text"; "codec.wire"; "codec.cct"; "merge"; "serve.agg";
    "verifier.check"; "verifier.prove"; "predict"; "predict_run";
    "opt.summary"; "opt.pgo"; "opt.validate";
  ]

(* A span belongs to the longest layer name that equals it or prefixes it
   up to a dot ([extract.profile] is [extract], [execute.base/go_like] is
   [execute]).  A span of no known layer is its own layer. *)
let layer_of_span name =
  List.fold_left
    (fun best l ->
      let n = String.length l in
      let hit =
        name = l
        || (String.length name > n
           && String.sub name 0 n = l
           && name.[n] = '.')
      in
      if hit && n > String.length best then l else best)
    "" names
  |> function
  | "" -> name
  | l -> l

type t = {
  wall : float;  (** first to last event *)
  self : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  spans : (string, int * float) Hashtbl.t;
      (** span name -> calls, inclusive seconds *)
  counters : (string * string, int * int) Hashtbl.t;
      (** (name, key) -> sum, largest single value *)
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Spans are strictly nested (one thread), so an [End] closes the
   innermost open span whatever its name.  A span's self time is its
   duration minus the durations of the spans directly inside it. *)
let analyze events =
  let self = Hashtbl.create 32 and spans = Hashtbl.create 64 in
  let counters = Hashtbl.create 32 in
  let first = ref None and last = ref 0.0 in
  let stack = ref [] in
  let stamp ts =
    if !first = None then first := Some ts;
    last := ts
  in
  List.iter
    (fun (e : Trace.event) ->
      match e with
      | Begin { name; ts } ->
          stamp ts;
          stack := (name, ts, ref 0.0) :: !stack
      | End { ts; _ } -> (
          stamp ts;
          match !stack with
          | [] -> ()
          | (name, t0, children) :: rest ->
              stack := rest;
              let dur = ts -. t0 in
              add self (layer_of_span name) (dur -. !children);
              let calls, incl =
                Option.value ~default:(0, 0.0) (Hashtbl.find_opt spans name)
              in
              Hashtbl.replace spans name (calls + 1, incl +. dur);
              match rest with
              | (_, _, parent) :: _ -> parent := !parent +. dur
              | [] -> ())
      | Counter { name; ts; values } ->
          stamp ts;
          List.iter
            (fun (k, v) ->
              let key = (name, k) in
              let sum, peak =
                Option.value ~default:(0, min_int)
                  (Hashtbl.find_opt counters key)
              in
              Hashtbl.replace counters key (sum + v, max peak v))
            values
      | Instant { ts; _ } -> stamp ts)
    events;
  {
    wall = (match !first with Some t0 -> !last -. t0 | None -> 0.0);
    self;
    spans;
    counters;
  }

let self_s t layer = Option.value ~default:0.0 (Hashtbl.find_opt t.self layer)

let counter t name key =
  match Hashtbl.find_opt t.counters (name, key) with
  | Some (sum, _) -> sum
  | None -> 0

let peak t name key =
  match Hashtbl.find_opt t.counters (name, key) with
  | Some (_, peak) -> peak
  | None -> 0

let calls t name =
  match Hashtbl.find_opt t.spans name with Some (n, _) -> n | None -> 0

let inclusive t name =
  match Hashtbl.find_opt t.spans name with Some (_, s) -> s | None -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* [execute.<config>/<program>] spans, as (config, program, calls,
   inclusive seconds). *)
let executions t =
  Hashtbl.fold
    (fun name (calls, incl) acc ->
      match String.index_opt name '/' with
      | Some slash when layer_of_span name = "execute" ->
          let config = String.sub name 8 (slash - 8) in
          let program =
            String.sub name (slash + 1) (String.length name - slash - 1)
          in
          (config, program, calls, incl) :: acc
      | _ -> acc)
    t.spans []

let execute_configs = List.map Surface.config_name Surface.grid_configs

(* Geometric mean over programs of the per-call host time of [mode] over
   that of the uninstrumented base run. *)
let host_overhead t mode =
  let runs = executions t in
  let per_call config program =
    List.find_map
      (fun (c, p, calls, incl) ->
        if c = config && p = program then Some (incl /. float_of_int calls)
        else None)
      runs
  in
  List.filter_map
    (fun (c, program, _, _) ->
      if c <> mode then None
      else
        match (per_call mode program, per_call "base" program) with
        | Some m, Some b when b > 0.0 -> Some (m /. b)
        | _ -> None)
    runs
  |> Stats.geomean

let minst_per_s t config =
  let secs =
    List.fold_left
      (fun acc (c, _, _, incl) -> if c = config then acc +. incl else acc)
      0.0 (executions t)
  in
  ratio (float_of_int (counter t ("execute." ^ config) "instructions") /. 1e6) secs

(* Throughput of one codec direction in MB/s over the spans' own time. *)
let mb_s t name =
  ratio (float_of_int (counter t name "bytes") /. 1e6) (inclusive t name)

(* Every per-layer number the trace yields, by metric name. *)
let metrics t =
  let share l = ("share", ratio (self_s t l) t.wall) in
  let layer l extra = List.map (fun (k, v) -> (l ^ "." ^ k, v)) extra in
  List.concat
    [
      List.concat_map
        (fun l -> layer l [ ("self_s", self_s t l); share l ])
        names;
      layer "feasibility"
        [
          ( "feasible_ratio",
            ratio
              (float_of_int (counter t "feasibility" "feasible"))
              (float_of_int (counter t "feasibility" "paths")) );
        ];
      layer "instrument"
        [
          ( "growth_x",
            ratio
              (float_of_int (counter t "instrument" "instrumented"))
              (float_of_int (counter t "instrument" "original")) );
        ];
      layer "execute"
        (("sim_minst",
          float_of_int
            (List.fold_left
               (fun acc c -> acc + counter t ("execute." ^ c) "instructions")
               0 execute_configs)
          /. 1e6)
        :: List.map (fun c -> ("minst_per_s." ^ c, minst_per_s t c))
             execute_configs
        @ List.map
            (fun m ->
              let m = Surface.mode_name m in
              ("host_overhead_x." ^ m, host_overhead t m))
            Surface.modes);
      List.concat_map
        (fun codec ->
          let l = "codec." ^ codec in
          layer l
            ([
               ("encode_mb_s", mb_s t (l ^ ".encode"));
               ("decode_mb_s", mb_s t (l ^ ".decode"));
               ( "bytes",
                 float_of_int
                   (counter t (l ^ ".encode") "bytes"
                   + counter t (l ^ ".decode") "bytes") );
             ]
            @
            if codec = "wire" then
              [ ("frames", float_of_int (counter t (l ^ ".decode") "frames")) ]
            else []))
        [ "text"; "wire"; "cct" ];
      layer "merge"
        [
          ( "records_per_s",
            ratio
              (float_of_int (counter t "merge" "records"))
              (inclusive t "merge")
          );
        ];
      layer "serve.agg"
        [ ("peak_records", float_of_int (peak t "serve.agg" "peak_records")) ];
      layer "verifier.check"
        [ ("calls", float_of_int (calls t "verifier.check")) ];
      layer "verifier.prove"
        [ ("calls", float_of_int (calls t "verifier.prove")) ];
      layer "predict" [ ("paths", float_of_int (counter t "predict" "paths")) ];
      layer "predict_run"
        [ ("windows", float_of_int (counter t "predict_run" "windows")) ];
      layer "opt.pgo" [ ("inlined", float_of_int (counter t "opt.pgo" "inlined")) ];
      layer "opt.validate" [ ("calls", float_of_int (calls t "opt.validate")) ];
    ]
