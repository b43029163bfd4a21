(* Static instrumentation cost / perturbation report.

   Ties the analyzer stack together: for every procedure, how many probes
   the chosen instrumentation mode inserts, how many code slots they
   occupy, how often the {!Freq} estimator predicts they will execute per
   invocation — and, when a dynamic profile from `pp run` is supplied, the
   estimated-versus-measured probe-execution comparison that validates the
   heuristics.

   Probe accounting is exact on the measured side: a path profile decodes
   into the precise sequence of CFG edges each traversal crossed, so the
   number of executed increments and commits follows from the placement
   with no modeling slack.  Only the estimate is heuristic. *)

module Cfg = Pp_ir.Cfg
module Proc = Pp_ir.Proc
module Program = Pp_ir.Program
module Diag = Pp_ir.Diag
module Digraph = Pp_graph.Digraph
module Ball_larus = Pp_core.Ball_larus
module Profile_io = Pp_core.Profile_io
module Profile = Pp_core.Profile
module Instrument = Pp_instrument.Instrument

type measured = {
  invocations : int;  (* executed From_entry paths *)
  probes : int;  (* executed path-probe operations *)
}

type row = {
  proc : string;
  blocks : int;
  npaths : int;  (* 0 when the mode does not number paths *)
  nfeasible : int option;  (* None when not enumerated / not a path mode *)
  probe_sites : int;  (* static probe locations *)
  added_slots : int;  (* code-size growth, instruction slots *)
  est_path : float;  (* estimated path-probe executions per invocation *)
  est_ctx : float;  (* estimated context-probe executions per invocation *)
  measured : measured option;
}

type report = { mode : Instrument.mode; rows : row list }

(* Path-probe executions under a placement: the entry init (for
   From_entry paths when the placement needs one), one increment per
   crossed increment edge, and the single commit that ends every
   traversal (backedge op or return commit).  A profile decodes into the
   precise edges each traversal crossed, so these counts are exact. *)
let measure ~is_increment ~init_needed bl paths =
  let invocations = ref 0 and probes = ref 0 in
  List.iter
    (fun (sum, (m : Profile.path_metrics)) ->
      let trav = Ball_larus.traverse bl sum in
      let f = m.Profile.freq in
      (match trav.Ball_larus.path.Ball_larus.source with
      | Ball_larus.From_entry ->
          invocations := !invocations + f;
          if init_needed then probes := !probes + f
      | Ball_larus.After_backedge _ -> ());
      List.iter
        (fun (e : Digraph.edge) ->
          if is_increment.(e.id) then probes := !probes + f)
        trav.Ball_larus.real_edges;
      probes := !probes + f)
    paths;
  { invocations = !invocations; probes = !probes }

let count_call_sites (p : Proc.t) freq =
  Array.fold_left
    (fun acc (b : Pp_ir.Block.t) ->
      List.fold_left
        (fun acc instr ->
          if Pp_ir.Instr.is_call instr then
            acc +. Freq.block_freq freq b.Pp_ir.Block.label
          else acc)
        acc b.Pp_ir.Block.instrs)
    0.0 p.Proc.blocks

let return_freq cfg freq =
  Digraph.fold_edges
    (fun e acc ->
      if Cfg.role cfg e = Cfg.Return then acc +. Freq.edge_freq freq e
      else acc)
    cfg.Cfg.graph 0.0

exception Fail of Diag.t

let compute ?(options = Instrument.default_options) ~mode
    ?profile (prog : Program.t) =
  try
    (match profile with
    | None -> ()
    | Some (s : Profile_io.saved) ->
        let hash = Profile_io.program_hash prog in
        if s.Profile_io.program_hash <> hash then
          raise
            (Fail
               (Diag.error (Diag.proc_loc "<header>")
                  "profile is from a different program (hash %s, expected \
                   %s)"
                  s.Profile_io.program_hash hash));
        if s.Profile_io.mode <> Instrument.mode_name mode then
          raise
            (Fail
               (Diag.error (Diag.proc_loc "<header>")
                  "profile mode %s does not match requested mode %s"
                  s.Profile_io.mode
                  (Instrument.mode_name mode))));
    let instrumented, manifest = Instrument.run ~options ~mode prog in
    let rows =
      List.map
        (fun (info : Instrument.proc_info) ->
          let p = Program.proc_exn prog info.Instrument.proc in
          let p' = Program.proc_exn instrumented info.Instrument.proc in
          let added_slots = Proc.size_slots p' - Proc.size_slots p in
          match info.Instrument.numbering with
          | Some bl ->
              (* Path-profiled procedure: feasibility + frequency. *)
              let cfg = Ball_larus.cfg bl in
              let fs = Feasibility.analyze cfg bl in
              let cp = Feasibility.constprop fs in
              let freq = Freq.estimate ~cp cfg in
              let placement = Instrument.placement options bl in
              let is_increment =
                Array.make (Digraph.num_edges cfg.Cfg.graph) false
              in
              List.iter
                (fun ((e : Digraph.edge), _) -> is_increment.(e.id) <- true)
                placement.Ball_larus.increments;
              let init_needed = placement.Ball_larus.init_needed in
              let est_path =
                (if init_needed then 1.0 else 0.0)
                +. List.fold_left
                     (fun acc ((e : Digraph.edge), _) ->
                       acc +. Freq.edge_freq freq e)
                     0.0 placement.Ball_larus.increments
                +. List.fold_left
                     (fun acc (op : Ball_larus.backedge_op) ->
                       acc +. Freq.edge_freq freq op.Ball_larus.backedge)
                     0.0 placement.Ball_larus.backedge_ops
                +. return_freq cfg freq
              in
              let est_ctx =
                if Instrument.profiles_context mode then
                  1.0 +. return_freq cfg freq +. count_call_sites p freq
                else 0.0
              in
              let probe_sites =
                (if init_needed then 1 else 0)
                + List.length placement.Ball_larus.increments
                + List.length placement.Ball_larus.backedge_ops
                + Digraph.fold_edges
                    (fun e acc ->
                      if Cfg.role cfg e = Cfg.Return then acc + 1 else acc)
                    cfg.Cfg.graph 0
                + (if Instrument.profiles_context mode then 2 + p.Proc.nsites else 0)
              in
              let measured =
                match profile with
                | None -> None
                | Some s -> (
                    match
                      List.find_opt
                        (fun (n, _, _) -> n = info.Instrument.proc)
                        s.Profile_io.procs
                    with
                    | None -> None
                    | Some (_, npaths_saved, paths) ->
                        if npaths_saved <> Ball_larus.num_paths bl then
                          raise
                            (Fail
                               (Diag.error
                                  (Diag.proc_loc info.Instrument.proc)
                                  "profile numbered with %d potential \
                                   paths, program has %d"
                                  npaths_saved
                                  (Ball_larus.num_paths bl)));
                        (* Soundness gate: a dynamically observed path must
                           never have been pruned. *)
                        (if Feasibility.enumerated fs then
                           match
                             List.find_opt
                               (fun (sum, _) ->
                                 not (Feasibility.feasible fs sum))
                               paths
                           with
                           | Some (sum, _) ->
                               raise
                                 (Fail
                                    (Diag.error
                                       (Diag.proc_loc info.Instrument.proc)
                                       "observed path %d was statically \
                                        pruned as infeasible (analyzer \
                                        bug)"
                                       sum))
                           | None -> ());
                        (* Annotation agreement, when the shard carries
                           one. *)
                        (match
                           List.assoc_opt info.Instrument.proc
                             s.Profile_io.feasible
                         with
                        | Some k
                          when Feasibility.enumerated fs
                               && k <> Feasibility.num_feasible fs ->
                            raise
                              (Fail
                                 (Diag.error
                                    (Diag.proc_loc info.Instrument.proc)
                                    "profile certifies %d feasible paths, \
                                     analysis finds %d"
                                    k
                                    (Feasibility.num_feasible fs)))
                        | _ -> ());
                        Some (measure ~is_increment ~init_needed bl paths))
              in
              {
                proc = info.Instrument.proc;
                blocks = Proc.num_blocks p;
                npaths = Ball_larus.num_paths bl;
                nfeasible =
                  (if Feasibility.enumerated fs then
                     Some (Feasibility.num_feasible fs)
                   else None);
                probe_sites;
                added_slots;
                est_path;
                est_ctx;
                measured;
              }
          | None ->
              (* Edge-profiled or context-only procedure. *)
              let cfg = Cfg.of_proc p in
              let cp = Constprop.analyze cfg in
              let freq = Freq.estimate ~cp cfg in
              let est_path, probe_sites =
                match info.Instrument.table with
                | Instrument.Edge_table { plan; _ } ->
                    let chords = Pp_core.Edge_profile.chords plan in
                    ( List.fold_left
                        (fun acc ((e : Digraph.edge), _) ->
                          acc +. Freq.edge_freq freq e)
                        0.0 chords,
                      List.length chords )
                | _ -> (0.0, if Instrument.profiles_context mode then 2 + p.Proc.nsites else 0)
              in
              let est_ctx =
                if Instrument.profiles_context mode then
                  1.0 +. return_freq cfg freq +. count_call_sites p freq
                else 0.0
              in
              {
                proc = info.Instrument.proc;
                blocks = Proc.num_blocks p;
                npaths = 0;
                nfeasible = None;
                probe_sites;
                added_slots;
                est_path;
                est_ctx;
                measured = None;
              })
        manifest.Instrument.infos
    in
    Ok { mode; rows }
  with
  | Fail d -> Error d
  | Ball_larus.Unsupported msg ->
      Error (Diag.error (Diag.proc_loc "<cost>") "%s" msg)

let render (r : report) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "instrumentation cost report [%s]" (Instrument.mode_name r.mode);
  line "%-20s %6s %7s %8s %6s %7s %10s %10s" "proc" "blocks" "paths"
    "feasible" "sites" "+slots" "est/call" "ctx/call";
  List.iter
    (fun row ->
      line "%-20s %6d %7d %8s %6d %7d %10.2f %10.2f" row.proc row.blocks
        row.npaths
        (match row.nfeasible with
        | Some k -> string_of_int k
        | None -> "-")
        row.probe_sites row.added_slots row.est_path row.est_ctx)
    r.rows;
  let measured_rows =
    List.filter_map
      (fun row ->
        match row.measured with Some m -> Some (row, m) | None -> None)
      r.rows
  in
  if measured_rows <> [] then begin
    line "";
    line "estimated vs measured probe executions (path probes):";
    line "%-20s %12s %12s %12s %8s" "proc" "invocations" "estimated"
      "measured" "error";
    let test = ref 0.0 and tmeas = ref 0 in
    List.iter
      (fun (row, m) ->
        let est = row.est_path *. float_of_int m.invocations in
        test := !test +. est;
        tmeas := !tmeas + m.probes;
        let err =
          if m.probes = 0 then 0.0
          else (est -. float_of_int m.probes) /. float_of_int m.probes
               *. 100.0
        in
        line "%-20s %12d %12.0f %12d %+7.1f%%" row.proc m.invocations est
          m.probes err)
      measured_rows;
    let terr =
      if !tmeas = 0 then 0.0
      else (!test -. float_of_int !tmeas) /. float_of_int !tmeas *. 100.0
    in
    line "%-20s %12s %12.0f %12d %+7.1f%%" "total" "" !test !tmeas terr
  end;
  Buffer.contents buf

let to_json (r : report) =
  let open Pp_telemetry.Json in
  let opt f = Option.fold ~none:Null ~some:f and int n = Int n in
  let measured m =
    Object [ ("invocations", Int m.invocations); ("probes", Int m.probes) ]
  in
  let row_json row =
    Object
      [ ("proc", String row.proc); ("blocks", Int row.blocks);
        ("npaths", Int row.npaths); ("nfeasible", opt int row.nfeasible);
        ("probe_sites", Int row.probe_sites);
        ("added_slots", Int row.added_slots);
        ("est_path", Sig (6, row.est_path)); ("est_ctx", Sig (6, row.est_ctx));
        ("measured", opt measured row.measured) ]
  in
  to_string
    (Object
       [ ("mode", String (Instrument.mode_name r.mode));
         ("rows", List (List.map row_json r.rows)) ])
