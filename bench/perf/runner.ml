(* One benchmark run: set up several times, then run whole passes until
   the time is spent, and turn the samples into metrics.  A traced run
   first measures untraced, then repeats the workload on a trace sink
   and reads the per-layer metrics off the trace. *)

module S = Surface
module W = Workloads

(* Set-up runs at least [setup_min] times and, while it is cheap, until
   [setup_seconds] are spent; [setup_s] is the median. *)
let setup_min = 3
let setup_max = 25
let setup_seconds = 1.0

(* The busiest traced run (ingest, 10 s) records about 14k events; a run
   whose ring drops one fails. *)
let trace_capacity = 1 lsl 18

type metric = { name : string; value : float; unit : string; n : int }

type result = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few failure messages *)
  metrics : metric list;
}

(* What one measured phase leaves behind.  Times are scaled to the
   reference host ({!Calibrate}). *)
type phase = {
  setup_times : float list;
  item_times : float list;  (** one per item *)
  rates : (string * float) list;  (** per-item samples, by metric *)
  calibrations : float list;  (** raw calibration timings *)
  attempted : int;
  failures : string list list;  (** per failed item *)
  wall : float;  (** of the passes, harness included *)
  cpu : float;  (** of the passes, harness included *)
  alloc_words : float;  (** allocated by the items *)
  promoted_words : float;  (** promoted to the major heap by the items *)
}

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [VmHWM] of this process in MB, from procfs. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  go ()

(* A timed step: its interval, its time and allocation net of the
   calibrations taken inside it, and the rates it measured. *)
type step = {
  t0 : float;
  t1 : float;
  secs : float;
  words : float;
  promoted : float;
  rates : (string * float * float) list;
}

(* Inside a long step, calibrate again at the first call into a layer
   after this many seconds. *)
let calibration_interval = 0.2

let phase (w : W.t) tr ~seed ~seconds ~expected ~programs =
  let samples = ref [] in
  let calibrate () =
    let k = S.calibration tr Calibrate.sample in
    samples := (Clock.now (), k) :: !samples
  in
  (* Between two timed steps: collect the previous step's garbage, so no
     step's time or memory depends on which step ran before it, then
     calibrate. *)
  let settle () =
    Gc.full_major ();
    calibrate ()
  in
  let timed f =
    settle ();
    let paused = ref 0.0 and paused_words = ref 0.0 and paused_promoted = ref 0.0 in
    let last = ref (Clock.now ()) in
    (S.boundary :=
       fun () ->
         let t = Clock.now () in
         if t -. !last > calibration_interval then begin
           let g = Gc.quick_stat () in
           calibrate ();
           let g' = Gc.quick_stat () in
           paused_words := !paused_words +. (allocated g' -. allocated g);
           paused_promoted :=
             !paused_promoted +. (g'.Gc.promoted_words -. g.Gc.promoted_words);
           last := Clock.now ();
           paused := !paused +. (!last -. t)
         end);
    let g0 = Gc.quick_stat () in
    let t0 = Clock.now () in
    let r = Fun.protect ~finally:(fun () -> S.boundary := ignore) f in
    let t1 = Clock.now () in
    let g1 = Gc.quick_stat () in
    ( r,
      {
        t0;
        t1;
        secs = t1 -. t0 -. !paused;
        words = allocated g1 -. allocated g0 -. !paused_words;
        promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words -. !paused_promoted;
        rates = [];
      } )
  in
  let setups = ref [] and pass = ref None in
  let spent () = List.fold_left (fun acc s -> acc +. s.secs) 0.0 !setups in
  while
    let n = List.length !setups in
    n < setup_min || (n < setup_max && spent () < setup_seconds)
  do
    (* Drop the previous set-up first, so its inputs never count twice
       towards peak memory. *)
    pass := None;
    let p, step =
      timed (fun () -> S.span tr "bench.setup" (fun () -> w.setup tr ~expected programs))
    in
    pass := Some p;
    setups := step :: !setups
  done;
  let pass = Option.get !pass in
  (* Warm-up: the first item in unshuffled order runs once, unmeasured,
     so the heap has grown the same way whatever the seed. *)
  (match pass (Random.State.make [| 0 |]) with
  | first :: _ -> ( try ignore (first.W.work tr) with _ -> ())
  | [] -> ());
  let rng = Random.State.make [| seed |] in
  let items = ref [] and failures = ref [] in
  let cpu0 = cpu_seconds () and t_start = Clock.now () in
  let run_item (item : W.item) =
    let outcome, step =
      timed (fun () ->
          S.span tr "bench.item" (fun () ->
              try Ok (item.work tr) with e -> Error (Printexc.to_string e)))
    in
    let errors, rates =
      match outcome with
      | Error msg -> ([ item.key ^ ": " ^ msg ], [])
      | Ok o ->
          ( (try o.W.check ()
             with e -> [ item.key ^ ": check raised " ^ Printexc.to_string e ]),
            o.W.rates )
    in
    items := { step with rates } :: !items;
    if errors <> [] then failures := errors :: !failures
  in
  let rec passes n =
    List.iter run_item (pass rng);
    if n < w.W.passes || Clock.now () -. t_start < seconds then passes (n + 1)
  in
  passes 1;
  settle ();
  let samples = Array.of_list !samples in
  let scaled s = s.secs *. Calibrate.scale samples s.t0 s.t1 in
  {
    setup_times = List.map scaled !setups;
    item_times = List.map scaled !items;
    rates =
      List.concat_map
        (fun s ->
          let scale = Calibrate.scale samples s.t0 s.t1 in
          List.map (fun (name, amount, secs) -> (name, amount /. (secs *. scale))) s.rates)
        !items;
    calibrations = Array.to_list (Array.map snd samples);
    attempted = List.length !items;
    failures = List.rev !failures;
    wall = Clock.now () -. t_start;
    cpu = cpu_seconds () -. cpu0;
    alloc_words = List.fold_left (fun acc s -> acc +. s.words) 0.0 !items;
    promoted_words = List.fold_left (fun acc s -> acc +. s.promoted) 0.0 !items;
  }

let metric name value n =
  let unit =
    match Catalogue.find name with Some m -> m.Catalogue.unit | None -> ""
  in
  { name; value; unit; n }

let end_to_end p ~peak_rss =
  let n = p.attempted in
  let ms = List.map (fun s -> s *. 1e3) p.item_times in
  let total = List.fold_left ( +. ) 0.0 p.item_times in
  let rate name =
    match List.filter_map (fun (k, v) -> if k = name then Some v else None) p.rates with
    | [] -> []
    | vs -> [ metric name (Stats.median vs) (List.length vs) ]
  in
  List.concat
    [
      [
        metric "setup_s" (Stats.median p.setup_times) (List.length p.setup_times);
        metric "items_per_s" (float_of_int n /. total) n;
        metric "item_ms.p50" (Stats.median ms) n;
      ];
      List.map
        (fun (pct, name) -> metric ("item_ms." ^ name) (Stats.percentile pct ms) n)
        (Stats.tail_percentiles n);
      rate "encode_mb_s";
      rate "ingest_mb_s";
      [
        metric "peak_rss_mb" peak_rss 1;
        metric "fail_ratio" (float_of_int (List.length p.failures) /. float_of_int n) n;
        metric "host.calibration_ms" (Stats.median p.calibrations *. 1e3)
          (List.length p.calibrations);
      ];
    ]

let per_item_s p = List.fold_left ( +. ) 0.0 p.item_times /. float_of_int p.attempted

let per_layer ~untraced ~traced layers ~dropped =
  List.map (fun (name, v) -> metric name v 1) (Layers.metrics layers)
  @ [
      metric "gc.alloc_mw" (traced.alloc_words /. 1e6) 1;
      metric "gc.promoted_mw" (traced.promoted_words /. 1e6) 1;
      metric "process.cpu_s" traced.cpu 1;
      metric "process.wait_share" (Float.max 0.0 (1.0 -. (traced.cpu /. traced.wall))) 1;
      metric "trace.wall_s" layers.Layers.wall 1;
      metric "trace.overhead_pct"
        (100.0 *. ((per_item_s traced /. per_item_s untraced) -. 1.0))
        traced.attempted;
      metric "trace.dropped" (float_of_int dropped) 1;
    ]

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let run ?programs (w : W.t) ~seed ~seconds ~expected ~trace_file =
  let programs = Option.value programs ~default:w.W.programs in
  let measure tr = phase w tr ~seed ~seconds ~expected ~programs in
  let untraced = measure S.untraced in
  let peak_rss = peak_rss_mb () in
  let e2e = end_to_end untraced ~peak_rss in
  let traced, layer_metrics, trace_failures =
    match trace_file with
    | None -> (None, [], [])
    | Some file ->
        let tr = S.sink ~clock:Clock.now ~capacity:trace_capacity in
        let p = S.span tr "bench" (fun () -> measure tr) in
        let dropped = S.trace_dropped tr in
        write_file file (S.chrome_json tr);
        let layers = Layers.analyze (S.trace_events tr) in
        ( Some p,
          per_layer ~untraced ~traced:p layers ~dropped,
          if dropped = 0 then []
          else [ [ Printf.sprintf "trace: the ring dropped %d events" dropped ] ] )
  in
  let phases = untraced :: Option.to_list traced in
  let failures = List.concat_map (fun p -> p.failures) phases @ trace_failures in
  {
    workload = w.W.name;
    seed;
    seconds;
    traced = trace_file <> None;
    attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 phases;
    failed = List.length failures;
    failures = List.filteri (fun i _ -> i < 20) (List.concat failures);
    metrics = e2e @ layer_metrics;
  }

(* {2 Output} *)

let host () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num r.seconds);
      ("traced", Json.Bool r.traced);
      ("host", host ());
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Num m.value);
                     ("unit", Json.Str m.unit);
                     ("n", Json.Num (float_of_int m.n));
                   ] ))
             r.metrics) );
    ]

(* The one-line summary a harness reads: the gated metrics of this kind
   of run (per-layer when traced, end-to-end otherwise). *)
let summary_line r =
  let gated = if r.traced then Catalogue.per_layer else Catalogue.end_to_end in
  let metrics =
    List.filter_map
      (fun (c : Catalogue.metric) ->
        if not c.Catalogue.gated then None
        else
          match List.find_opt (fun m -> m.name = c.Catalogue.name) r.metrics with
          | Some m ->
              Some
                ( m.name,
                  Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ] )
          | None -> failwith ("metric not measured: " ^ c.Catalogue.name))
      gated
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Json.Obj metrics);
       ])

let print r =
  Printf.printf "workload %s, seed %d, %s, %d items attempted, %d failed\n" r.workload
    r.seed
    (if r.traced then "traced" else "untraced")
    r.attempted r.failed;
  List.iter (fun f -> Printf.printf "  FAIL %s\n" f) r.failures;
  List.iter
    (fun m -> Printf.printf "  %-34s %14.6g %-8s (n=%d)\n" m.name m.value m.unit m.n)
    r.metrics;
  print_endline (summary_line r)
