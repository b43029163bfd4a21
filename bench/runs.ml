(* Memoized measurement of every workload under every configuration.  A
   session's VM is dropped as soon as the artifacts the tables need have
   been extracted, so the harness's memory stays flat. *)

module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Interp = Pp_vm.Interp
module Runtime = Pp_vm.Runtime
module Event = Pp_machine.Event
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Profile = Pp_core.Profile
module Cct = Pp_core.Cct
module Cct_stats = Pp_core.Cct_stats

let budget = Pp_run.Matrix.default_budget

type config = Base | Flow_hw | Context_hw | Context_flow

let config_name = function
  | Base -> "base"
  | Flow_hw -> "flow+hw"
  | Context_hw -> "context+hw"
  | Context_flow -> "context+flow"

type cct_summary = {
  stats : Cct_stats.t;
  one_path_sites : int;
  prof_bytes : int;
}

type measurement = {
  counters : (Event.t * int) list;
  cycles : int;
  instructions : int;
  profile : Profile.t option;  (* Flow_hw runs *)
  cct_summary : cct_summary option;  (* Context_flow runs *)
}

let cache : (string * config, measurement) Hashtbl.t = Hashtbl.create 128

let progress = ref true

let note fmt =
  Printf.ksprintf
    (fun s ->
      if !progress then begin
        Printf.eprintf "%s\n" s;
        flush stderr
      end)
    fmt

let compile_cache : (string, Pp_ir.Program.t) Hashtbl.t = Hashtbl.create 32

let program_of (w : W.t) =
  match Hashtbl.find_opt compile_cache w.W.name with
  | Some p -> p
  | None ->
      let p = W.compile w in
      Hashtbl.replace compile_cache w.W.name p;
      p

let measure_base (w : W.t) =
  let r = Driver.run_baseline ~max_instructions:budget (program_of w) in
  {
    counters = r.Interp.counters;
    cycles = r.Interp.cycles;
    instructions = r.Interp.instructions;
    profile = None;
    cct_summary = None;
  }

let measure_mode (w : W.t) config =
  let mode, want_profile, want_cct =
    match config with
    | Flow_hw -> (Instrument.Flow_hw, true, false)
    | Context_hw -> (Instrument.Context_hw, false, false)
    | Context_flow -> (Instrument.Context_flow, false, true)
    | Base -> assert false
  in
  let session =
    Driver.prepare ~max_instructions:budget ~mode (program_of w)
  in
  let r = Driver.run session in
  let profile = if want_profile then Some (Driver.path_profile session)
    else None
  in
  let cct_summary =
    if want_cct then begin
      let cct = Driver.cct session in
      let stats = Cct_stats.compute ~metrics_per_node:2 cct in
      let site_paths = Driver.site_paths session in
      let one_path_sites =
        Cct_stats.call_sites_one_path ~site_paths cct
      in
      let prof_bytes =
        Runtime.prof_bytes_allocated (Interp.runtime session.Driver.vm)
      in
      Some { stats; one_path_sites; prof_bytes }
    end
    else None
  in
  {
    counters = r.Interp.counters;
    cycles = r.Interp.cycles;
    instructions = r.Interp.instructions;
    profile;
    cct_summary;
  }

let measure (w : W.t) config =
  match config with
  | Base -> measure_base w
  | Flow_hw | Context_hw | Context_flow -> measure_mode w config

let get (w : W.t) config =
  match Hashtbl.find_opt cache (w.W.name, config) with
  | Some m -> m
  | None ->
      note "  running %s / %s ..." w.W.name (config_name config);
      let m = measure w config in
      Hashtbl.replace cache (w.W.name, config) m;
      m

(* Fill the cache through the process pool: [jobs] measurements at a time,
   each in its own forked worker.  A shard that dies is only noted — its
   cell stays empty, and a table that needs it will re-measure serially
   (and hit the same failure in-process, where it is debuggable). *)
let prefetch ~jobs pairs =
  let missing =
    List.filter
      (fun ((w : W.t), config) ->
        not (Hashtbl.mem cache (w.W.name, config)))
      pairs
  in
  if jobs > 1 && missing <> [] then begin
    note "prefetching %d measurements with %d workers ..."
      (List.length missing) jobs;
    let outcomes =
      Pp_run.Pool.map ~jobs (fun (w, config) -> measure w config) missing
    in
    List.iter2
      (fun ((w : W.t), config) outcome ->
        match outcome with
        | Pp_run.Pool.Done m -> Hashtbl.replace cache (w.W.name, config) m
        | o ->
            note "  %s / %s %s" w.W.name (config_name config)
              (Pp_run.Pool.describe o))
      missing outcomes
  end

(* The full Tables-1..5 grid: every workload under every configuration. *)
let full_grid () =
  List.concat_map
    (fun w ->
      List.map
        (fun c -> (w, c))
        [ Base; Flow_hw; Context_hw; Context_flow ])
    Registry.all

let counter m e = List.assoc e m.counters

let cint = Registry.cint
let cfp = Registry.cfp
let all = Registry.all
