module Event = Pp_machine.Event
module Cct = Pp_core.Cct
module Profile = Pp_core.Profile
module Ball_larus = Pp_core.Ball_larus
module Interp = Pp_vm.Interp
module Runtime = Pp_vm.Runtime
module Program = Pp_ir.Program
module Proc = Pp_ir.Proc
module Trace = Pp_telemetry.Trace

module Engine = Pp_vm.Engine

type session = {
  original : Program.t;
  instrumented : Program.t;
  manifest : Instrument.manifest;
  vm : Interp.t;
  engine : Engine.t;
  trace : Trace.t;
  sampling : Pp_vm.Sampling.t option;
}

let default_pics = (Event.Dcache_misses, Event.Instructions)

(* The inline array-table commit sequences are plain loads and stores
   the sampling controller cannot patch out. *)
let sampled_options options =
  let base = Option.value ~default:Instrument.default_options options in
  { base with Instrument.array_threshold = 0 }

let prepare ?options ?pruner ?config ?max_instructions
    ?(pics = default_pics) ?(telemetry = Trace.null) ?telemetry_interval
    ?engine ?sampling ~mode prog =
  let options =
    match sampling with
    | None -> options
    | Some _ -> Some (sampled_options options)
  in
  let instrumented, manifest =
    Trace.with_span telemetry "instrument" (fun () ->
        Instrument.run ?options ?pruner ~mode prog)
  in
  let vm =
    Trace.with_span telemetry "vm.setup" (fun () ->
        let vm =
          Interp.create ?config ?max_instructions
            ~merge_call_sites:
              manifest.Instrument.options.Instrument.merge_call_sites
            instrumented
        in
        let rt = Interp.runtime vm in
        List.iter
          (fun (info : Instrument.proc_info) ->
            match info.Instrument.table with
            | Instrument.Hash_table { id } ->
                Runtime.register_hash_table rt ~table:id
                  ~proc:info.Instrument.proc
            | Instrument.Cct_table { id } ->
                (* A statically pruned numbering certifies fewer possible
                   sums; per-record tables need only that many cells of
                   simulated footprint. *)
                let npaths =
                  match info.Instrument.pruned with
                  | Some p -> Ball_larus.num_feasible p
                  | None -> info.Instrument.num_paths
                in
                Runtime.register_cct_table rt ~table:id
                  ~proc:info.Instrument.proc ~npaths
            | Instrument.No_table | Instrument.Array_table _
            | Instrument.Edge_table _ ->
                ())
          manifest.Instrument.infos;
        let pic0, pic1 = pics in
        Interp.select_pics vm ~pic0 ~pic1;
        vm)
  in
  (match telemetry_interval with
  | Some interval when Trace.enabled telemetry ->
      Interp.set_telemetry vm ~trace:telemetry ~interval
  | _ -> ());
  Option.iter (Interp.set_sampling vm) sampling;
  {
    original = prog;
    instrumented;
    manifest;
    vm;
    engine = Engine.of_vm ?kind:engine vm;
    trace = telemetry;
    sampling;
  }

let run session =
  Trace.with_span session.trace "execute" (fun () ->
      Engine.run session.engine)

let run_baseline ?max_instructions ?engine prog =
  let eng = Engine.create ?kind:engine ?max_instructions prog in
  let pic0, pic1 = default_pics in
  Interp.select_pics (Engine.vm eng) ~pic0 ~pic1;
  Engine.run eng

let cct session = Runtime.cct (Interp.runtime session.vm)

let coverage session =
  match session.sampling with
  | None -> []
  | Some s -> Pp_vm.Sampling.coverage s

let path_profile session =
  Trace.with_span session.trace "extract.profile" @@ fun () ->
  let vm = session.vm in
  let rt = Interp.runtime vm in
  let procs =
    List.filter_map
      (fun (info : Instrument.proc_info) ->
        match info.Instrument.numbering with
        | None -> None
        | Some numbering ->
            let paths =
              match info.Instrument.table with
              | Instrument.No_table | Instrument.Edge_table _ -> []
              | Instrument.Array_table { global; cells } ->
                  let acc = ref [] in
                  for sum = info.Instrument.num_paths - 1 downto 0 do
                    let v =
                      Interp.read_table_cells vm ~global ~index:sum ~cells
                    in
                    if v.(0) > 0 then
                      acc :=
                        ( sum,
                          {
                            Profile.freq = v.(0);
                            m0 = (if cells >= 3 then v.(1) else 0);
                            m1 = (if cells >= 3 then v.(2) else 0);
                          } )
                        :: !acc
                  done;
                  !acc
              | Instrument.Hash_table { id } ->
                  Runtime.hash_table_counts rt ~table:id
                  |> List.map (fun (sum, (c : Runtime.path_cells)) ->
                         ( sum,
                           {
                             Profile.freq = c.Runtime.freq;
                             m0 = c.Runtime.m0;
                             m1 = c.Runtime.m1;
                           } ))
                  |> List.sort compare
              | Instrument.Cct_table _ ->
                  (* Aggregate per-record tables over all contexts. *)
                  let totals = Hashtbl.create 64 in
                  Cct.iter
                    (fun node ->
                      if Cct.proc node = info.Instrument.proc then
                        Hashtbl.iter
                          (fun sum count ->
                            let cur =
                              Option.value ~default:0
                                (Hashtbl.find_opt totals sum)
                            in
                            Hashtbl.replace totals sum (cur + !count))
                          (Cct.data node).Runtime.paths)
                    (Runtime.cct rt);
                  Hashtbl.fold
                    (fun sum freq acc ->
                      (sum, { Profile.freq; m0 = 0; m1 = 0 }) :: acc)
                    totals []
                  |> List.sort compare
            in
            Some { Profile.proc = info.Instrument.proc; numbering; paths })
      session.manifest.Instrument.infos
  in
  let counters = Pp_machine.Machine.counters (Interp.machine vm) in
  let pic0, pic1 = Pp_machine.Counters.selection counters in
  { Profile.pic0; pic1; procs }

let saved_profile session =
  let feasible =
    List.filter_map
      (fun (info : Instrument.proc_info) ->
        Option.map
          (fun p -> (info.Instrument.proc, Ball_larus.num_feasible p))
          info.Instrument.pruned)
      session.manifest.Instrument.infos
  in
  Pp_core.Profile_io.of_profile ~feasible ~coverage:(coverage session)
    ~program_hash:(Pp_core.Profile_io.program_hash session.original)
    ~mode:(Instrument.mode_name session.manifest.Instrument.mode)
    (path_profile session)

let edge_profile session =
  List.filter_map
    (fun (info : Instrument.proc_info) ->
      match info.Instrument.table with
      | Instrument.Edge_table { global; plan } ->
          let n = Pp_core.Edge_profile.num_counters plan in
          let counts =
            Array.init n (fun i ->
                (Interp.read_table_cells session.vm ~global ~index:i
                   ~cells:1).(0))
          in
          Some
            ( info.Instrument.proc,
              plan,
              Pp_core.Edge_profile.reconstruct plan ~counts )
      | Instrument.No_table | Instrument.Array_table _
      | Instrument.Hash_table _ | Instrument.Cct_table _ ->
          None)
    session.manifest.Instrument.infos

let site_paths session =
  (* Map each procedure's call sites to their blocks, lazily. *)
  let site_block = Hashtbl.create 16 in
  let block_of_site proc_name site =
    let key = proc_name in
    let arr =
      match Hashtbl.find_opt site_block key with
      | Some arr -> arr
      | None ->
          let p = Program.proc_exn session.original proc_name in
          let arr = Array.make (max 1 p.Proc.nsites) (-1) in
          Proc.iter_instrs
            (fun label instr ->
              match instr with
              | Pp_ir.Instr.Call { site; _ }
              | Pp_ir.Instr.Callind { site; _ } ->
                  arr.(site) <- label
              | _ -> ())
            p;
          Hashtbl.replace site_block key arr;
          arr
    in
    if site >= 0 && site < Array.length arr then arr.(site) else -1
  in
  let numbering_of =
    let table = Hashtbl.create 16 in
    List.iter
      (fun (info : Instrument.proc_info) ->
        match info.Instrument.numbering with
        | Some bl -> Hashtbl.replace table info.Instrument.proc bl
        | None -> ())
      session.manifest.Instrument.infos;
    fun proc -> Hashtbl.find_opt table proc
  in
  fun node site ->
    let proc = Cct.proc node in
    match numbering_of proc with
    | None -> 0
    | Some bl ->
        let block = block_of_site proc site in
        if block < 0 then 0
        else
          Hashtbl.fold
            (fun sum _count acc ->
              let path = Ball_larus.decode bl sum in
              if List.mem block path.Ball_larus.blocks then acc + 1 else acc)
            (Cct.data node).Runtime.paths 0
