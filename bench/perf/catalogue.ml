(* Every metric the benchmark reports, with its unit and direction.
   Those marked [gated] are the ones BENCHMARK.json lists (a test keeps
   the two equal); the rest are printed and compared but not gated. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** share of the base median by which the metric may worsen before
          [compare] calls it worse (end-to-end metrics only) *)
  gated : bool;
}

let m ?(bound = 0.0) ?(gated = false) name unit better =
  { name; unit; better; bound; gated }

let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25 ~gated:true;
    m "items_per_s" "1/s" Higher ~bound:0.10 ~gated:true;
    m "item_ms.p50" "ms" Lower ~bound:0.10 ~gated:true;
    m "item_ms.p90" "ms" Lower ~bound:0.10;
    m "item_ms.p99" "ms" Lower ~bound:0.10;
    m "item_ms.p99.9" "ms" Lower ~bound:0.10;
    m "encode_mb_s" "MB/s" Higher ~bound:0.10;
    m "ingest_mb_s" "MB/s" Higher ~bound:0.10;
    m "peak_rss_mb" "MB" Lower ~bound:0.10 ~gated:true;
    m "fail_ratio" "ratio" Lower ~bound:0.0;
  ]

(* Layer self times are gated as shares of the traced wall, which read 0
   for a layer a workload never enters; seconds are gated only for the
   layers every workload enters. *)
let per_layer =
  List.concat
    [
      List.concat_map
        (fun l ->
          [
            m (l ^ ".self_s") "s" Lower
              ~gated:(List.mem l [ "minic"; "instrument" ]);
            m (l ^ ".share") "ratio" Lower ~gated:true;
          ])
        Layers.names;
      [
        m "feasibility.feasible_ratio" "ratio" Lower ~gated:true;
        m "instrument.growth_x" "x" Lower ~gated:true;
        m "execute.sim_minst" "Minst" Lower ~gated:true;
      ];
      List.map
        (fun c -> m ("execute.minst_per_s." ^ c) "Minst/s" Higher ~gated:true)
        Layers.execute_configs;
      List.map
        (fun mode ->
          m ("execute.host_overhead_x." ^ Surface.mode_name mode) "x" Lower
            ~gated:true)
        Surface.modes;
      List.concat_map
        (fun codec ->
          let l = "codec." ^ codec in
          [
            m (l ^ ".encode_mb_s") "MB/s" Higher ~gated:true;
            m (l ^ ".decode_mb_s") "MB/s" Higher ~gated:true;
            m (l ^ ".bytes") "B" Lower ~gated:true;
          ])
        [ "text"; "wire"; "cct" ];
      [
        m "codec.wire.frames" "count" Lower ~gated:true;
        m "merge.records_per_s" "1/s" Higher ~gated:true;
        m "serve.agg.peak_records" "count" Lower ~gated:true;
        m "verifier.check.calls" "count" Lower ~gated:true;
        m "verifier.prove.calls" "count" Lower ~gated:true;
        m "predict.paths" "count" Lower ~gated:true;
        m "predict_run.windows" "count" Lower ~gated:true;
        m "opt.pgo.inlined" "count" Higher ~gated:true;
        m "opt.validate.calls" "count" Lower ~gated:true;
        m "gc.alloc_mw" "Mw" Lower ~gated:true;
        m "gc.promoted_mw" "Mw" Lower ~gated:true;
        m "process.cpu_s" "s" Lower ~gated:true;
        m "process.wait_share" "ratio" Lower ~gated:true;
        m "trace.wall_s" "s" Lower ~gated:true;
        m "trace.overhead_pct" "%" Lower ~gated:true;
        m "trace.dropped" "count" Lower ~gated:true;
        m "host.calibration_ms" "ms" Lower;
      ];
    ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"
