(* The four benchmark workloads.  Each sets up once (compiling its
   programs, building its inputs) and then yields passes: every item of
   the workload once, in an order shuffled by the run's seed.  An item's
   [work] is the timed, user-visible part; its [check] runs after the
   clock stops and returns one message per wrong output. *)

module S = Surface
module Trace = Pp_telemetry.Trace
module Instrument = S.Instrument

type outcome = {
  rates : (string * float * float) list;
      (** workload-specific rates: name, amount done, seconds taken *)
  check : unit -> string list;
}

type item = { key : string; work : Trace.t -> outcome }

type t = {
  name : string;
  why : string;
  programs : string list;  (** the default program set *)
  passes : int;  (** whole passes a run makes at least *)
  setup : Trace.t -> expected:Expected.t -> string list -> Random.State.t -> item list;
      (** [setup tr ~expected programs] does the set-up work and returns
          the pass generator, which draws the pass's order from the
          run's seeded generator *)
}

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let md5 texts = Digest.to_hex (Digest.string (String.concat "\n" texts))

let compile_all tr programs =
  List.map (fun name -> (name, S.compile tr name)) programs

let ok what = function
  | Ok r -> r
  | Error msg -> failwith (Printf.sprintf "%s: trap: %s" what msg)

(* The digest of one run: its counters plus a hash of what it extracted. *)
let run_digest (r : S.Interp.result) texts =
  let pic0, pic1 = S.pics r in
  Printf.sprintf "%d %d %d %d %s" r.S.Interp.instructions r.S.Interp.cycles
    pic0 pic1 (md5 texts)

(* {2 grid} *)

let edge_text profile =
  String.concat ";"
    (List.map
       (fun (proc, _, edges) ->
         proc ^ ":"
         ^ String.concat "," (List.map (fun (_, c) -> string_of_int c) edges))
       profile)

(* One [pp bench] cell, as [Matrix.measure] computes it, on a program
   compiled in set-up.  Returns the digest, computed when forced. *)
let grid_cell tr ?engine ~program prog config =
  let budget = S.budget in
  match config with
  | S.Matrix.Base ->
      let r = ok program (S.run_baseline tr ?engine ~program ~budget prog) in
      fun () -> run_digest r []
  | S.Matrix.Mode mode ->
      let s = S.prepare tr ?engine ~budget ~mode prog in
      let r = ok program (S.run tr ~program ~budget s) in
      let shard () =
        let saved =
          S.saved_of_profile tr ~program_hash:(S.program_hash prog) ~mode
            (S.path_profile s)
        in
        fun () -> S.shard_text saved
      in
      let texts =
        match mode with
        | Instrument.Edge_freq ->
            let p = S.edge_profile tr s in
            fun () -> [ edge_text p ]
        | Instrument.Flow_freq | Instrument.Flow_hw ->
            let shard = shard () in
            fun () -> [ shard () ]
        | Instrument.Context_hw ->
            let cct = S.cct tr s in
            fun () -> [ S.cct_text cct ]
        | Instrument.Context_flow ->
            let shard = shard () in
            let cct = S.cct tr s in
            fun () -> [ shard (); S.cct_text cct ]
      in
      fun () -> run_digest r (texts ())

let grid_key program config =
  Printf.sprintf "grid/%s/%s" program (S.config_name config)

let grid =
  {
    name = "grid";
    why =
      "the pp bench evaluation grid: 18 programs x base and 5 modes, ~95% \
       of its time in execute";
    programs = S.program_names ();
    passes = 1;
    setup =
      (fun tr ~expected programs ->
        let cells =
          List.concat_map
            (fun (program, prog) ->
              List.map
                (fun config ->
                  let key = grid_key program config in
                  {
                    key;
                    work =
                      (fun tr ->
                        let digest = grid_cell tr ~program prog config in
                        {
                          rates = [];
                          check = (fun () -> Expected.check expected key (digest ()));
                        });
                  })
                S.grid_configs)
            (compile_all tr programs)
        in
        fun rng -> shuffle rng cells);
  }

(* {2 static} *)

let bound_errors key bounds =
  List.concat_map
    (fun ((proc, sum), (b : S.Predict.exec_bounds)) ->
      let m = b.S.Predict.per_exec in
      List.filter_map
        (fun (metric, (itv : S.Predict.itv)) ->
          match itv.S.Predict.hi with
          | Some hi when hi < itv.S.Predict.lo ->
              Some
                (Printf.sprintf "%s: %s path %d: %s bound [%d, %d] is empty"
                   key proc sum metric itv.S.Predict.lo hi)
          | _ -> None)
        [
          ("cycles", m.S.Predict.cycles);
          ("dmiss", m.S.Predict.dmiss);
          ("imiss", m.S.Predict.imiss);
          ("stalls", m.S.Predict.stalls);
        ])
    bounds

let static =
  {
    name = "static";
    why =
      "time to a verdict for pp check, prove and predict: instrument and \
       analyse, nothing executed";
    programs = S.program_names ();
    passes = 1;
    setup =
      (fun tr ~expected:_ programs ->
        let items =
          List.concat_map
            (fun (program, prog) ->
              List.map
                (fun mode ->
                  let key =
                    Printf.sprintf "static/%s/%s" program (S.mode_name mode)
                  in
                  {
                    key;
                    work =
                      (fun tr ->
                        let instrumented, manifest =
                          S.instrument tr ~pruner:(S.pruner tr) ~mode prog
                        in
                        let diags =
                          S.verify tr ~original:prog ~manifest instrumented
                          @ S.prove tr ~budget:S.budget ~original:prog ~manifest
                              instrumented
                        in
                        let predictor =
                          S.predictor tr ~original:prog ~instrumented
                        in
                        let bounds = S.predict_paths tr predictor in
                        {
                          rates = [];
                          check =
                            (fun () ->
                              List.map
                                (fun d -> key ^ ": " ^ S.diag_text d)
                                diags
                              @ bound_errors key bounds);
                        });
                  })
                S.modes)
            (compile_all tr programs)
        in
        fun rng -> shuffle rng items);
  }

(* {2 ingest} *)

(* Sampled shards as [bench serve] builds them: a 1M-instruction budget
   whose trap is a normal end, a quarter of the commits recorded.  The
   sampling seeds are fixed: drawn from the run's seed, they moved the
   shard bytes, and rounds per second with them, by 4% between seeds. *)
let ingest_budget = 1_000_000
let ingest_duty = 0.25
let ingest_seeds = 4
let ingest_modes = Instrument.[ Flow_hw; Context_flow ]

type shard = {
  group : string;  (** program/mode: the shards merged together *)
  program : string;
  saved : S.Profile_io.saved;
  text : string;  (** its reference encoding *)
  cct : int array S.Cct.t option;  (** context-flow shards only *)
}

let build_shards tr programs =
  List.concat_map
    (fun (program, prog) ->
      let program_hash = S.program_hash prog in
      List.concat_map
        (fun k ->
          List.map
            (fun mode ->
              let sampling = S.sampling ~duty:ingest_duty ~seed:(k + 1) in
              let s = S.prepare tr ~sampling ~budget:ingest_budget ~mode prog in
              ignore (S.run tr ~program ~budget:ingest_budget s);
              let saved =
                S.saved_of_profile tr ~coverage:(S.coverage s) ~program_hash
                  ~mode (S.path_profile s)
              in
              {
                group = program ^ "/" ^ S.mode_name mode;
                program;
                saved;
                text = S.shard_text saved;
                cct =
                  (if mode = Instrument.Context_flow then
                     Some (S.metrics_cct (S.cct tr s))
                   else None);
              })
            ingest_modes)
        (List.init ingest_seeds Fun.id))
    (compile_all tr programs)

(* Indices of [xs] grouped by [key]: groups sorted by key, indices in
   the order of [xs]. *)
let group_indices key xs =
  List.fold_left
    (fun acc (i, x) ->
      let k = key x in
      match List.assoc_opt k acc with
      | Some idx -> (k, i :: idx) :: List.remove_assoc k acc
      | None -> (k, [ i ]) :: acc)
    []
    (List.mapi (fun i x -> (i, x)) xs)
  |> List.rev_map (fun (k, idx) -> (k, List.rev idx))
  |> List.sort compare

let decoded what = function
  | Ok (s, None) -> s
  | Ok (_, Some _) -> failwith (what ^ ": shard needed salvage")
  | Error d -> failwith (what ^ ": " ^ S.diag_text d)

let pick arr = List.map (Array.get arr)

(* One round: every shard encoded on the client side, then ingested on
   the aggregator side.  Both sides see the same bytes, so the two
   throughputs share a numerator.  The order, chunk sizes and groups are
   fixed before the returned work function runs, outside its time. *)
let ingest_round ~refs ~cct_refs rng order =
  let shards = Array.of_list order in
  let chunks = List.map (fun _ -> 512 + Random.State.int rng 3585) order in
  let groups = group_indices (fun s -> s.group) order in
  let with_cct = List.filter (fun s -> s.cct <> None) order in
  let cct_groups = group_indices (fun s -> s.program) with_cct in
  let saved = List.map (fun s -> s.saved) order in
  let ccts = List.filter_map (fun s -> s.cct) with_cct in
  fun tr ->
  let t0 = Clock.now () in
  let texts = S.encode_text tr saved in
  let wires = S.encode_wire tr saved in
  let cct_texts = S.encode_cct tr ccts in
  let t1 = Clock.now () in
  let from_text = Array.of_list (List.map (decoded "text") (S.decode_text tr texts)) in
  let from_wire =
    S.decode_wire tr (List.combine wires chunks)
    |> List.map (function Ok s -> s | Error m -> failwith ("wire: " ^ m))
    |> Array.of_list
  in
  let aggs = S.aggregate tr (List.map (fun (_, idx) -> pick from_wire idx) groups) in
  let merged = S.merge_shards tr (List.map (fun (_, idx) -> pick from_text idx) groups) in
  let from_cct = Array.of_list (S.decode_cct tr cct_texts) in
  let cct_merged = S.merge_ccts tr (List.map (fun (_, idx) -> pick from_cct idx) cct_groups) in
  let t2 = Clock.now () in
  let mb = float_of_int (S.total_bytes (texts @ wires @ cct_texts)) /. 1e6 in
  let check () =
    let differs what i s =
      if S.shard_text s = shards.(i).text then []
      else [ Printf.sprintf "%s: %s shard %d differs from its source" shards.(i).group what i ]
    in
    let group_errors (group, _) agg merge =
      (match agg with
      | Some s, [], _ when S.shard_text s = Hashtbl.find refs group -> []
      | _ -> [ group ^ ": aggregator result differs from merge_all" ])
      @
      match merge with
      | Ok s when S.shard_text s = Hashtbl.find refs group -> []
      | _ -> [ group ^ ": merge_all differs from the reference" ]
    in
    List.concat
      [
        List.concat (List.mapi (differs "text") (Array.to_list from_text));
        List.concat (List.mapi (differs "wire") (Array.to_list from_wire));
        List.concat (List.map2 (fun g (a, m) -> group_errors g a m) groups (List.combine aggs merged));
        List.concat
          (List.map2
             (fun (program, _) c ->
               if S.metrics_cct_text c = Hashtbl.find cct_refs program then []
               else [ program ^ ": merged CCT differs from the reference" ])
             cct_groups cct_merged);
      ]
  in
  {
    rates = [ ("encode_mb_s", mb, t1 -. t0); ("ingest_mb_s", mb, t2 -. t1) ];
    check;
  }

let ingest =
  {
    name = "ingest";
    why =
      "shard encode on the client and decode, merge and aggregation on the \
       server, invisible in every other workload";
    programs = S.program_names ();
    passes = 1;
    setup =
      (fun tr ~expected:_ programs ->
        let shards = build_shards tr programs in
        let refs = Hashtbl.create 64 and cct_refs = Hashtbl.create 32 in
        let saved = Array.of_list (List.map (fun s -> s.saved) shards) in
        let groups = group_indices (fun s -> s.group) shards in
        List.iter2
          (fun (group, _) merged ->
            Hashtbl.replace refs group (S.shard_text (Result.get_ok merged)))
          groups
          (S.merge_shards tr (List.map (fun (_, idx) -> pick saved idx) groups));
        let with_cct = List.filter (fun s -> s.cct <> None) shards in
        let ccts = Array.of_list (List.filter_map (fun s -> s.cct) with_cct) in
        let cct_groups = group_indices (fun s -> s.program) with_cct in
        List.iter2
          (fun (program, _) c -> Hashtbl.replace cct_refs program (S.metrics_cct_text c))
          cct_groups
          (S.merge_ccts tr (List.map (fun (_, idx) -> pick ccts idx) cct_groups));
        fun rng ->
          let order = shuffle rng shards in
          [ { key = "ingest/round"; work = ingest_round ~refs ~cct_refs rng order } ]);
  }

(* {2 optimize} *)

type optimized = {
  base : S.Interp.result;
  opt : S.Interp.result;
  program_text : string;  (** the optimized program *)
  errors : string list;  (** certification failures *)
}

(* [pp optimize --certify -w program], in process: profile, summarise,
   optimize under the output guard, re-measure, then certify the result
   in all five modes. *)
let optimize_program tr ~program prog =
  let budget = S.budget in
  let pruner = S.pruner tr in
  let profiled mode =
    let s = S.prepare tr ~pruner ~budget ~mode prog in
    ignore (ok program (S.run tr ~program ~budget s));
    s
  in
  let flow = profiled Instrument.Flow_hw in
  let ctx = profiled Instrument.Context_flow in
  let summary = S.summarize tr ~cct:(S.cct tr ctx) prog (S.path_profile flow) in
  let measure p = ok program (S.run_baseline tr ~program ~budget p) in
  let base = measure prog in
  let validate p =
    S.validate tr (fun () ->
        match S.run_baseline tr ~program ~budget p with
        | Ok r -> r.S.Interp.output = base.S.Interp.output
        | Error _ -> false)
  in
  let optimized, _ = S.optimize tr ~validate ~summary prog in
  let opt = measure optimized in
  let certify mode =
    match S.instrument tr ~mode optimized with
    | exception S.Ball_larus.Unsupported msg ->
        [ S.mode_name mode ^ ": cannot instrument: " ^ msg ]
    | instrumented, manifest ->
        List.map S.diag_text
          (S.verify tr ~original:optimized ~manifest instrumented
          @ S.prove tr ~budget ~original:optimized ~manifest instrumented)
  in
  let errors = List.concat_map certify S.modes in
  let outcomes =
    List.map (fun mode -> S.predict_run tr ~budget ~mode optimized) S.modes
  in
  let errors =
    errors
    @ List.concat_map S.predict_errors outcomes
    @
    if S.predict_exit_code outcomes = 0 then []
    else [ "predict: nonzero exit code" ]
  in
  { base; opt; program_text = S.ir_text optimized; errors }

let optimize_digest o = run_digest o.opt [ o.program_text ]

let optimize_errors key o =
  List.map (fun e -> key ^ ": " ^ e) o.errors
  @
  if o.opt.S.Interp.output = o.base.S.Interp.output then []
  else [ key ^ ": optimized program changed the output" ]

let optimize =
  {
    name = "optimize";
    why =
      "pp optimize --certify: profile, optimize under the output guard, \
       re-measure and certify in 5 modes";
    programs = [ "gcc_like"; "li_like"; "m88k_like"; "go_like" ];
    (* Four items a pass, each ~2 s.  Over ten seeds, items_per_s spread
       by 4.6% with two passes a run and by 3.2% with four. *)
    passes = 4;
    setup =
      (fun tr ~expected programs ->
        let items =
          List.map
            (fun (program, prog) ->
              let key = "optimize/" ^ program in
              {
                key;
                work =
                  (fun tr ->
                    let o = optimize_program tr ~program prog in
                    {
                      rates = [];
                      check =
                        (fun () ->
                          optimize_errors key o
                          @ Expected.check expected key (optimize_digest o));
                    });
              })
            (compile_all tr programs)
        in
        fun rng -> shuffle rng items);
  }

let all = [ grid; static; ingest; optimize ]
let find name = List.find_opt (fun w -> w.name = name) all

