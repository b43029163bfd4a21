module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Engine = Pp_vm.Engine
module Verifier = Pp_analysis.Verifier
module Summary = Pp_opt.Summary
module Program = Pp_ir.Program
module Proc = Pp_ir.Proc
module Block = Pp_ir.Block
module Instr = Pp_ir.Instr

let load ~file ~workload =
  match (file, workload) with
  | Some path, None ->
      let src = In_channel.with_open_bin path In_channel.input_all in
      if Filename.check_suffix path ".ppir" then (
        try
          let prog = Pp_ir.Ir_text.parse src in
          Pp_ir.Validate.run prog;
          Ok prog
        with
        | Pp_ir.Ir_text.Parse_error (line, msg) ->
            Error (Printf.sprintf "%s:%d: %s" path line msg)
        | Pp_ir.Validate.Invalid d -> Error (Pp_ir.Diag.to_string d))
      else (
        try Ok (Pp_minic.Compile.program ~name:path src) with
        | Pp_minic.Errors.Error (pos, msg) ->
            Error (Pp_minic.Errors.to_string ~file:path pos msg)
        | Pp_ir.Validate.Invalid d -> Error (Pp_ir.Diag.to_string d))
  | None, Some name -> (
      match Pp_workloads.Registry.find name with
      | Some w -> Ok (Pp_workloads.Workload.compile w)
      | None ->
          Error
            (Printf.sprintf "unknown workload %S; try 'pp workloads'" name))
  | Some _, Some _ -> Error "give either a file or --workload, not both"
  | None, None -> Error "a source file or --workload is required"

let trapping f =
  match f () with
  | r -> Ok r
  | exception Interp.Trap msg -> Error ("trap: " ^ msg)

let run_baseline ?engine ~budget prog =
  trapping (fun () ->
      Driver.run_baseline ~max_instructions:budget ?engine prog)

let profiled ?engine ~budget ~mode prog =
  let session =
    Driver.prepare ~pruner:Pp_analysis.Feasibility.pruner
      ~max_instructions:budget ?engine ~mode prog
  in
  Result.map (fun _ -> session) (trapping (fun () -> Driver.run session))

let summarize ?engine ~budget ~source prog =
  let ( let* ) = Result.bind in
  match source with
  | `Cct ->
      let* flow = profiled ?engine ~budget ~mode:Instrument.Flow_hw prog in
      let* ctx =
        profiled ?engine ~budget ~mode:Instrument.Context_flow prog
      in
      Ok
        (Summary.of_paths ~cct:(Driver.cct ctx) prog
           (Driver.path_profile flow))
  | `Flat ->
      let* edge = profiled ?engine ~budget ~mode:Instrument.Edge_freq prog in
      Ok
        (Summary.of_edges prog
           (List.map
              (fun (proc, plan, edges) ->
                (proc, Summary.block_counts plan edges))
              (Driver.edge_profile edge)))

type optimized = {
  program : Program.t;
  report : Pp_opt.Pgo.report;
  after : (Interp.result, string) result;
}

let optimize ?engine ?knobs ~budget ~(base : Interp.result) ~summary prog =
  let same_output = function
    | Ok (r : Interp.result) -> r.Interp.output = base.Interp.output
    | Error _ -> false
  in
  let validate p = same_output (run_baseline ?engine ~budget p) in
  let program, report = Pp_opt.Pgo.optimize ?knobs ~validate ~summary prog in
  let after =
    match run_baseline ?engine ~budget program with
    | Ok _ as r when not (same_output r) ->
        Error "optimized program produced different output"
    | r -> r
  in
  { program; report; after }

type certificate = {
  checks : (Instrument.mode * (Pp_ir.Diag.t list, string) result) list;
  predictions : (Predict_run.outcome list, string) result;
}

let certify ?engine ~budget prog =
  let check mode =
    match Instrument.run ~mode prog with
    | exception Pp_core.Ball_larus.Unsupported msg -> Error msg
    | instrumented, manifest ->
        Ok
          (Verifier.verify_program ~original:prog ~manifest instrumented
          @ Verifier.prove_program ~budget ~original:prog ~manifest
              instrumented)
  in
  let rec predict acc = function
    | [] -> Ok (List.rev acc)
    | mode :: modes -> (
        match
          trapping (fun () -> Predict_run.run ~budget ?engine ~mode prog)
        with
        | Ok o -> predict (o :: acc) modes
        | Error _ as e -> e)
  in
  let checks = List.map (fun mode -> (mode, check mode)) Instrument.all_modes in
  { checks; predictions = predict [] Instrument.all_modes }

let certified c =
  List.for_all (fun (_, r) -> r = Ok []) c.checks
  && match c.predictions with
     | Ok outcomes -> Predict_run.exit_code outcomes = 0
     | Error _ -> false

type inject = Bounds | Taint

let shrink_table (prog : Program.t) (manifest : Instrument.manifest) =
  let global =
    List.find_map
      (fun (info : Instrument.proc_info) ->
        match info.Instrument.table with
        | Instrument.Array_table { global; _ }
        | Instrument.Edge_table { global; _ } ->
            Some global
        | Instrument.No_table | Instrument.Hash_table _
        | Instrument.Cct_table _ ->
            None)
      manifest.Instrument.infos
  in
  match global with
  | None ->
      Error
        "no counter-table global in this mode (use a mode with array or \
         edge tables, e.g. -m flow-hw)"
  | Some global ->
      let globals =
        Array.to_list prog.Program.globals
        |> List.map (fun (g : Program.global) ->
               if g.Program.gname = global then
                 { g with Program.size_words = max 1 (g.size_words - 1) }
               else g)
      in
      Ok
        (Program.make
           ~procs:(Array.to_list prog.Program.procs)
           ~globals ~main:prog.Program.main)

let leak_path ~(original : Program.t) (prog : Program.t)
    (manifest : Instrument.manifest) =
  let victim =
    List.find_map
      (fun (i, (info : Instrument.proc_info)) ->
        match info.Instrument.path_loc with
        | Some loc when original.Program.procs.(i).Proc.niregs >= 1 ->
            Some (i, loc)
        | _ -> None)
      (List.mapi (fun i info -> (i, info)) manifest.Instrument.infos)
  in
  match victim with
  | None ->
      Error
        "no procedure with a live path location and an original integer \
         register"
  | Some (i, loc) ->
      let p = prog.Program.procs.(i) in
      let leak =
        match loc with
        | Pp_instrument.Path_instr.Path_reg r -> [ Instr.Imov (0, r) ]
        | Pp_instrument.Path_instr.Path_slot off ->
            [ Instr.Frameaddr (0, off); Instr.Load (0, 0, 0) ]
      in
      let blocks =
        Array.map
          (fun (b : Block.t) ->
            if b.Block.label = p.Proc.entry then
              { b with Block.instrs = b.Block.instrs @ leak }
            else b)
          p.Proc.blocks
      in
      let procs =
        Array.to_list prog.Program.procs
        |> List.mapi (fun j q -> if j = i then Proc.with_blocks p blocks else q)
      in
      Ok
        (Program.make ~procs
           ~globals:(Array.to_list prog.Program.globals)
           ~main:prog.Program.main)

let inject kind ~original ~manifest prog =
  match kind with
  | Bounds -> shrink_table prog manifest
  | Taint -> leak_path ~original prog manifest
