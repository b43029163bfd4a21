module Ball_larus = Pp_core.Ball_larus
module Proc = Pp_ir.Proc
module Program = Pp_ir.Program
module Cfg = Pp_ir.Cfg

type mode = Edge_freq | Flow_freq | Flow_hw | Context_hw | Context_flow

type options = {
  optimize_placement : bool;
  array_threshold : int;
  backedge_metric_reads : bool;
  caller_saves : bool;
  spill_threshold : int;
  merge_call_sites : bool;
  only : string list option;
}

let default_options =
  {
    optimize_placement = false;
    array_threshold = 4096;
    backedge_metric_reads = false;
    caller_saves = false;
    spill_threshold = 64;
    merge_call_sites = false;
    only = None;
  }

type table =
  | No_table
  | Array_table of { global : string; cells : int }
  | Hash_table of { id : int }
  | Cct_table of { id : int }
  | Edge_table of { global : string; plan : Pp_core.Edge_profile.t }

type proc_info = {
  proc : string;
  numbering : Ball_larus.t option;
  table : table;
  num_paths : int;
  spilled : bool;
  path_loc : Path_instr.path_loc option;
  pruned : Ball_larus.pruned option;
}

type pruner = Cfg.t -> Ball_larus.t -> Ball_larus.pruned option

type manifest = { mode : mode; options : options; infos : proc_info list }

let mode_name = function
  | Edge_freq -> "edge-freq"
  | Flow_freq -> "flow-freq"
  | Flow_hw -> "flow-hw"
  | Context_hw -> "context-hw"
  | Context_flow -> "context-flow"

let all_modes = [ Edge_freq; Flow_freq; Flow_hw; Context_hw; Context_flow ]

let table_global_name proc = "__ptab_" ^ proc

let profiles_paths = function
  | Flow_freq | Flow_hw | Context_flow -> true
  | Edge_freq | Context_hw -> false

let profiles_context = function
  | Context_hw | Context_flow -> true
  | Edge_freq | Flow_freq | Flow_hw -> false

(* BL94 edge profiling: one counter per spanning-tree chord, a 4-instruction
   load/increment/store at a statically known offset. *)
let emit_edge_profiling ed ~global =
  let weights = Pp_core.Static_weights.edge_weight (Editor.cfg ed) in
  let plan = Pp_core.Edge_profile.plan ~weights (Editor.cfg ed) in
  List.iter
    (fun ((e : Pp_graph.Digraph.edge), idx) ->
      let rb = Editor.new_ireg ed in
      let rt = Editor.new_ireg ed in
      let code =
        [
          Pp_ir.Instr.Iconst_sym (rb, global);
          Pp_ir.Instr.Load (rt, rb, idx * 8);
          Pp_ir.Instr.Ibinop_imm (Pp_ir.Instr.Add, rt, rt, 1);
          Pp_ir.Instr.Store (rt, rb, idx * 8);
        ]
      in
      match Pp_ir.Cfg.role (Editor.cfg ed) e with
      | Pp_ir.Cfg.Entry -> Editor.at_entry ed code
      | Pp_ir.Cfg.Jump | Pp_ir.Cfg.Branch_true | Pp_ir.Cfg.Branch_false
      | Pp_ir.Cfg.Return ->
          Editor.on_edge ed e code)
    (Pp_core.Edge_profile.chords plan);
  plan

let placement options bl =
  if options.optimize_placement then
    (* Static loop-depth frequency estimates keep hot edges on the
       spanning tree, as BL96 intends. *)
    let weights = Pp_core.Static_weights.edge_weight (Ball_larus.cfg bl) in
    Ball_larus.optimized_placement ~weights bl
  else Ball_larus.simple_placement bl

let instrument_proc ?pruner options mode ~table_id (p : Proc.t) =
  match options.only with
  | Some names when not (List.mem p.Proc.name names) ->
      ( p,
        {
          proc = p.Proc.name;
          numbering = None;
          table = No_table;
          num_paths = 0;
          spilled = false;
          path_loc = None;
          pruned = None;
        } )
  | Some _ | None ->
  let ed = Editor.create p in
  let spilled = p.Proc.niregs >= options.spill_threshold in
  let numbering, table, path_loc, pruned =
    if mode = Edge_freq then begin
      let global = table_global_name p.Proc.name in
      let plan = emit_edge_profiling ed ~global in
      (None, Edge_table { global; plan }, None, None)
    end
    else if profiles_paths mode then begin
      let cfg = Editor.cfg ed in
      let bl = Ball_larus.build cfg in
      (* Static feasibility pruning, when the caller supplies an analysis.
         The numbering (and hence every probe constant) is untouched: the
         pruned view only certifies which sums can occur, letting the
         runtime size hash/CCT tables by the feasible count. *)
      let pruned = match pruner with None -> None | Some f -> f cfg bl in
      let placement = placement options bl in
      let num_paths = Ball_larus.num_paths bl in
      let hw = mode = Flow_hw in
      let table =
        match mode with
        | Context_flow -> Cct_table { id = table_id }
        | Flow_freq | Flow_hw ->
            if num_paths <= options.array_threshold then
              Array_table
                {
                  global = table_global_name p.Proc.name;
                  cells = (if hw then 3 else 1);
                }
            else Hash_table { id = table_id }
        | Edge_freq | Context_hw -> assert false
      in
      let target =
        match table with
        | Array_table { global; cells } ->
            Path_instr.Array_target { global; cells }
        | Hash_table { id } -> Path_instr.Hash_target { id }
        | Cct_table { id } -> Path_instr.Cct_target { id }
        | No_table | Edge_table _ -> assert false
      in
      (* Context_flow ordering: the path emitter registers first so that at
         every return the commit (into the *current* call record) executes
         before Cct_exit pops back to the caller.  Entry-code order between
         the two emitters is immaterial: commits only happen at backedges
         and returns, both well after Cct_enter. *)
      let path_loc =
        Path_instr.emit ed ~placement ~hw ~target ~spill:spilled
          ~caller_saves:options.caller_saves
      in
      if profiles_context mode then
        Cct_instr.emit ed ~metrics:false ~backedge_reads:false;
      (Some bl, table, Some path_loc, pruned)
    end
    else begin
      (* Context_hw: CCT construction with metric deltas. *)
      Cct_instr.emit ed ~metrics:true
        ~backedge_reads:options.backedge_metric_reads;
      (None, No_table, None, None)
    end
  in
  let num_paths =
    match numbering with Some bl -> Ball_larus.num_paths bl | None -> 0
  in
  let info =
    {
      proc = p.Proc.name;
      numbering;
      table;
      num_paths;
      spilled;
      path_loc;
      pruned;
    }
  in
  (Editor.finish ed, info)

let run ?(options = default_options) ?pruner ~mode prog =
  let infos = ref [] in
  let table_globals = ref [] in
  let procs =
    Array.to_list prog.Program.procs
    |> List.mapi (fun table_id p ->
           let p', info = instrument_proc ?pruner options mode ~table_id p in
           infos := info :: !infos;
           (match info.table with
           | Array_table { global; cells } ->
               table_globals :=
                 {
                   Program.gname = global;
                   size_words = info.num_paths * cells;
                   init = None;
                 }
                 :: !table_globals
           | Edge_table { global; plan } ->
               table_globals :=
                 {
                   Program.gname = global;
                   size_words =
                     max 1 (Pp_core.Edge_profile.num_counters plan);
                   init = None;
                 }
                 :: !table_globals
           | No_table | Hash_table _ | Cct_table _ -> ());
           p')
  in
  let globals =
    Array.to_list prog.Program.globals @ List.rev !table_globals
  in
  let prog' = Program.make ~procs ~globals ~main:prog.Program.main in
  Pp_ir.Validate.run prog';
  (prog', { mode; options; infos = List.rev !infos })

(* Instrumentation-state footprint, derived by comparing the original and
   instrumented procedures: the Editor allocates fresh registers starting
   at the original counts and fresh spill slots starting at the original
   frame size, so the deltas are exactly the state the probes own. *)
type state = {
  fresh_iregs : int * int;
  fresh_fregs : int * int;
  fresh_slots : int * int;
  path_home : Path_instr.path_loc option;
  table_globals : string list;
}

let state ~(original : Proc.t) ~(instrumented : Proc.t) (info : proc_info) =
  let table_globals =
    match info.table with
    | Array_table { global; _ } | Edge_table { global; _ } -> [ global ]
    | No_table | Hash_table _ | Cct_table _ -> []
  in
  {
    fresh_iregs = (original.Proc.niregs, instrumented.Proc.niregs);
    fresh_fregs = (original.Proc.nfregs, instrumented.Proc.nfregs);
    fresh_slots =
      (original.Proc.frame_words * 8, instrumented.Proc.frame_words * 8);
    path_home = info.path_loc;
    table_globals;
  }
