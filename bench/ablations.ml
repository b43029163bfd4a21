(* Ablations of the design choices DESIGN.md calls out (A1-A4). *)

module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Runtime = Pp_vm.Runtime
module Event = Pp_machine.Event
module Cct = Pp_core.Cct
module Cct_stats = Pp_core.Cct_stats
module Report = Pp_core.Report

let heading title = Printf.printf "\n==== %s ====\n\n" title

let budget = Pp_run.Matrix.default_budget

let workload name = Option.get (Registry.find name)

let cycles_with ~options ~mode w =
  let session =
    Driver.prepare ~options ~max_instructions:budget ~mode
      (Runs.program_of w)
  in
  let r = Driver.run session in
  (session, r)

(* A1: array vs hash-table path counters, sweeping the array threshold. *)
let ablation_hash () =
  heading
    "Ablation A1: array vs hash-table path counters (Flow+HW cycles vs \
     array threshold)";
  let names = [ "go_like"; "gcc_like"; "compress_like"; "tomcatv_like" ] in
  let thresholds = [ 0; 64; 1024; 4096; 65536 ] in
  List.iter
    (fun name ->
      let w = workload name in
      let base = (Runs.get w Runs.Base).Runs.cycles in
      Printf.printf "  %-14s" name;
      List.iter
        (fun threshold ->
          let options =
            { Instrument.default_options with
              Instrument.array_threshold = threshold }
          in
          let _, r = cycles_with ~options ~mode:Instrument.Flow_hw w in
          Printf.printf "  t=%-6d %sx" threshold
            (Report.ratio (float_of_int r.Interp.cycles /. float_of_int base)))
        thresholds;
      Printf.printf "\n")
    names;
  Printf.printf
    "\n  (t=0 forces every procedure through the hash path; large t keeps \
     arrays.)\n"

(* A2: call-site discrimination versus merged slots (the paper: sites cost
   2-3x the space). *)
let ablation_sites () =
  heading
    "Ablation A2: CCT call-site discrimination vs merged slots \
     (Context+Flow)";
  Printf.printf "  %-14s %12s %12s %10s %10s\n" "benchmark" "nodes(site)"
    "nodes(merge)" "bytes(site)" "bytes(merge)";
  List.iter
    (fun name ->
      let w = workload name in
      let measure merge =
        let options =
          { Instrument.default_options with
            Instrument.merge_call_sites = merge }
        in
        let session, _ =
          cycles_with ~options ~mode:Instrument.Context_flow w
        in
        let cct = Driver.cct session in
        let bytes =
          Runtime.prof_bytes_allocated (Interp.runtime session.Driver.vm)
        in
        (Cct.num_nodes cct - 1, bytes)
      in
      let n_site, b_site = measure false in
      let n_merge, b_merge = measure true in
      Printf.printf "  %-14s %12d %12d %10d %10d  (%.1fx size)\n" name n_site
        n_merge b_site b_merge
        (float_of_int b_site /. float_of_int (max b_merge 1)))
    [ "vortex_like"; "li_like"; "gcc_like"; "apsi_like" ]

(* A3: counter save/restore at callee entry/exit vs at every call site. *)
let ablation_saverestore () =
  heading
    "Ablation A3: PIC save/restore at callee entry/exit (paper) vs at \
     call sites (Flow+HW cycles x base)";
  List.iter
    (fun name ->
      let w = workload name in
      let base = (Runs.get w Runs.Base).Runs.cycles in
      let run caller_saves =
        let options =
          { Instrument.default_options with
            Instrument.caller_saves }
        in
        let _, r = cycles_with ~options ~mode:Instrument.Flow_hw w in
        float_of_int r.Interp.cycles /. float_of_int base
      in
      Printf.printf "  %-14s callee-side %sx   caller-side %sx\n" name
        (Report.ratio (run false))
        (Report.ratio (run true)))
    [ "vortex_like"; "li_like"; "gcc_like"; "fpppp_like" ]

(* A4: reading the counters on loop backedges (4.3) bounds the measured
   interval at extra cost. *)
let ablation_backedge () =
  heading
    "Ablation A4: Context+HW with and without backedge counter reads";
  List.iter
    (fun name ->
      let w = workload name in
      let base = (Runs.get w Runs.Base).Runs.cycles in
      let run backedge_metric_reads =
        let options =
          { Instrument.default_options with
            Instrument.backedge_metric_reads }
        in
        let session, r =
          cycles_with ~options ~mode:Instrument.Context_hw w
        in
        let cct = Driver.cct session in
        let total_m0 =
          Cct.fold
            (fun acc n -> acc + (Cct.data n).Runtime.metrics.(1))
            0 cct
        in
        (float_of_int r.Interp.cycles /. float_of_int base, total_m0)
      in
      let ov_plain, m_plain = run false in
      let ov_reads, m_reads = run true in
      Printf.printf
        "  %-14s overhead %sx -> %sx   accumulated misses %d -> %d\n" name
        (Report.ratio ov_plain) (Report.ratio ov_reads) m_plain m_reads)
    [ "tomcatv_like"; "mgrid_like"; "compress_like" ]

(* The paper's optimized placement (Fig 1(d)) vs the simple scheme. *)
let ablation_placement () =
  heading
    "Ablation: simple vs spanning-tree (chord) increment placement \
     (Flow+HW cycles x base)";
  List.iter
    (fun name ->
      let w = workload name in
      let base = (Runs.get w Runs.Base).Runs.cycles in
      let run optimize_placement =
        let options =
          { Instrument.default_options with
            Instrument.optimize_placement }
        in
        let _, r = cycles_with ~options ~mode:Instrument.Flow_hw w in
        float_of_int r.Interp.cycles /. float_of_int base
      in
      Printf.printf "  %-14s simple %sx   chords %sx\n" name
        (Report.ratio (run false))
        (Report.ratio (run true)))
    [ "go_like"; "tomcatv_like"; "compress_like"; "fpppp_like" ]

(* The paper: path profiling overhead is "roughly twice that of efficient
   edge profiling". *)
let ablation_edge () =
  heading
    "Ablation: efficient edge profiling (BL94) vs path profiling (cycles x \
     base)";
  List.iter
    (fun name ->
      let w = workload name in
      let base = (Runs.get w Runs.Base).Runs.cycles in
      let over mode =
        let _, r = cycles_with ~options:Instrument.default_options ~mode w in
        float_of_int r.Interp.cycles /. float_of_int base
      in
      let edge = over Instrument.Edge_freq in
      let path = over Instrument.Flow_freq in
      Printf.printf
        "  %-14s edge %sx   path %sx   (path/edge overhead ratio %.1f)\n"
        name (Report.ratio edge) (Report.ratio path)
        ((path -. 1.0) /. Float.max (edge -. 1.0) 0.001))
    [ "go_like"; "gcc_like"; "li_like"; "compress_like"; "tomcatv_like" ]
