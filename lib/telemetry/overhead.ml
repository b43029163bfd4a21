module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Runtime = Pp_vm.Runtime
module Cct = Pp_core.Cct
module Profile = Pp_core.Profile
module Edge_profile = Pp_core.Edge_profile
module Event = Pp_machine.Event
module Cost = Pp_analysis.Cost
module Pool = Pp_run.Pool
module Digraph = Pp_graph.Digraph

type category = Path_register | Table_commit | Cct_probe | Counter_read

let categories = [ Path_register; Table_commit; Cct_probe; Counter_read ]

let category_name = function
  | Path_register -> "path-register"
  | Table_commit -> "table-commit"
  | Cct_probe -> "cct-probe"
  | Counter_read -> "counter-read"

(* Simulated slots per probe: a register update is one arithmetic op; a
   table commit is an address computation plus load/add/store (and hash
   probing on spill); a CCT transition walks/creates a call record; a
   counter access is a single PIC read/write. *)
let unit_cost = function
  | Path_register -> 1.0
  | Table_commit -> 8.0
  | Cct_probe -> 10.0
  | Counter_read -> 1.0

type attribution = {
  category : category;
  probes : int;
  cycles : int;
  instructions : int;
}

type mode_row = {
  mode : string;
  cycles : int;
  instructions : int;
  delta_cycles : int;
  delta_instructions : int;
  attributions : attribution list;
  counters : (string * int) list;
}

type base = {
  base_cycles : int;
  base_instructions : int;
  base_counters : (string * int) list;
}

type report = {
  program : string;
  budget : int option;
  base : base;
  rows : mode_row list;
  failures : (string * string) list;
}

(* {2 Largest-remainder apportionment} *)

let apportion ~total weights =
  let n = Array.length weights in
  if n = 0 then [||]
  else
    let wsum = Array.fold_left ( +. ) 0.0 weights in
    if wsum <= 0.0 then begin
      let out = Array.make n 0 in
      out.(n - 1) <- total;
      out
    end
    else begin
      let exact =
        Array.map (fun w -> float_of_int total *. w /. wsum) weights
      in
      let out = Array.map (fun x -> int_of_float (Float.floor x)) exact in
      let rem = total - Array.fold_left ( + ) 0 out in
      (* [floor] never overshoots, so 0 <= rem < n even for negative
         totals; hand the +1s to the largest fractional parts. *)
      let order = List.init n Fun.id in
      let frac i = exact.(i) -. Float.floor exact.(i) in
      let order =
        List.sort
          (fun i j ->
            match compare (frac j) (frac i) with 0 -> compare i j | c -> c)
          order
      in
      List.iteri (fun k i -> if k < rem then out.(i) <- out.(i) + 1) order;
      out
    end

(* {2 Exact probe decode} *)

type probe_counts = {
  p_register : int;
  p_commit : int;
  p_cct : int;
  p_read : int;
}

(* Hardware-metric counter accesses per probe under [Flow_hw]
   ({!Pp_instrument.Path_instr} templates): procedure entry saves both
   PICs, zeroes and re-reads one (4 ops) and the matching return
   restores both (2); every commit reads both PIC deltas (2); a backedge
   op additionally re-arms with a zero and a read-after-write (2). *)
let flow_hw_reads (b : Cost.breakdown) =
  (6 * b.Cost.entry_traversals) + (2 * b.Cost.commits)
  + (2 * b.Cost.backedge_commits)

let decode_probes (session : Driver.session) =
  let manifest = session.Driver.manifest in
  let options = manifest.Instrument.options in
  let mode = manifest.Instrument.mode in
  let pr = ref 0 and tc = ref 0 and cp = ref 0 and cr = ref 0 in
  (* Path-numbered procedures: replay the measured profile against the
     placement — exact counts, no modeling slack. *)
  let profile = Driver.path_profile session in
  List.iter
    (fun (p : Profile.proc_profile) ->
      let b =
        Cost.measured_breakdown ~options p.Profile.numbering p.Profile.paths
      in
      pr := !pr + b.Cost.inits + b.Cost.increments + b.Cost.backedge_commits;
      tc := !tc + b.Cost.commits;
      if mode = Instrument.Flow_hw then cr := !cr + flow_hw_reads b)
    profile.Profile.procs;
  (* Edge mode: each executed chord-counter increment is one table
     update; counts come straight off the counter array. *)
  (match mode with
  | Instrument.Edge_freq ->
      List.iter
        (fun (_, plan, edges) ->
          List.iter
            (fun ((e : Digraph.edge), _) ->
              match
                List.find_opt
                  (fun ((e' : Digraph.edge), _) -> e'.Digraph.id = e.Digraph.id)
                  edges
              with
              | Some (_, n) -> tc := !tc + n
              | None -> ())
            (Edge_profile.chords plan))
        (Driver.edge_profile session)
  | Instrument.Flow_freq | Instrument.Flow_hw | Instrument.Context_hw
  | Instrument.Context_flow ->
      ());
  (* Context modes: every call-record entry ran one enter and one exit
     probe; [metrics.(0)] counts entries exactly.  Context+HW probes
     additionally read both PICs on enter and on exit. *)
  if Instrument.profiles_context mode then begin
    let entries = ref 0 in
    Cct.iter
      (fun node ->
        if Cct.parent node <> None then
          entries := !entries + (Cct.data node).Runtime.metrics.(0))
      (Driver.cct session);
    cp := 2 * !entries;
    if mode = Instrument.Context_hw then cr := !cr + (4 * !entries)
  end;
  { p_register = !pr; p_commit = !tc; p_cct = !cp; p_read = !cr }

let probes_of counts = function
  | Path_register -> counts.p_register
  | Table_commit -> counts.p_commit
  | Cct_probe -> counts.p_cct
  | Counter_read -> counts.p_read

(* {2 Measurement} *)

let counters_alist (r : Interp.result) =
  List.map (fun (e, v) -> (Event.name e, v)) r.Interp.counters

let measure_base ?budget ?engine prog =
  let r = Driver.run_baseline ?max_instructions:budget ?engine prog in
  {
    base_cycles = r.Interp.cycles;
    base_instructions = r.Interp.instructions;
    base_counters = counters_alist r;
  }

let measure_mode ?budget ?engine ~base prog mode =
  let session = Driver.prepare ?max_instructions:budget ?engine ~mode prog in
  let r = Driver.run session in
  let counts = decode_probes session in
  let delta_cycles = r.Interp.cycles - base.base_cycles in
  let delta_instructions = r.Interp.instructions - base.base_instructions in
  let weights =
    Array.of_list
      (List.map
         (fun c -> float_of_int (probes_of counts c) *. unit_cost c)
         categories)
  in
  let ac = apportion ~total:delta_cycles weights in
  let ai = apportion ~total:delta_instructions weights in
  let attributions =
    List.mapi
      (fun i c ->
        {
          category = c;
          probes = probes_of counts c;
          cycles = ac.(i);
          instructions = ai.(i);
        })
      categories
  in
  {
    mode = Instrument.mode_name mode;
    cycles = r.Interp.cycles;
    instructions = r.Interp.instructions;
    delta_cycles;
    delta_instructions;
    attributions;
    counters = counters_alist r;
  }

let compute ?budget ?engine ?jobs ?(modes = Instrument.all_modes) ~program prog =
  let base = measure_base ?budget ?engine prog in
  let outcomes =
    Pool.map ?jobs (fun mode -> measure_mode ?budget ?engine ~base prog mode) modes
  in
  let rows, failures =
    List.fold_left2
      (fun (rows, failures) mode outcome ->
        match outcome with
        | Pool.Done row -> (row :: rows, failures)
        | (Pool.Crashed _ | Pool.Timed_out _) as o ->
            (rows, (Instrument.mode_name mode, Pool.describe o) :: failures))
      ([], []) modes outcomes
  in
  {
    program;
    budget;
    base;
    rows = List.rev rows;
    failures = List.rev failures;
  }

let check r =
  let rec go = function
    | [] -> Ok ()
    | row :: rest ->
        let sc =
          List.fold_left (fun acc (a : attribution) -> acc + a.cycles) 0 row.attributions
        and si =
          List.fold_left
            (fun acc (a : attribution) -> acc + a.instructions)
            0 row.attributions
        in
        if sc <> row.delta_cycles then
          Error
            (Printf.sprintf
               "%s: cycle attributions sum to %d, measured delta is %d"
               row.mode sc row.delta_cycles)
        else if si <> row.delta_instructions then
          Error
            (Printf.sprintf
               "%s: instruction attributions sum to %d, measured delta is %d"
               row.mode si row.delta_instructions)
        else go rest
  in
  go r.rows

(* {2 Rendering} *)

let pct delta base =
  if base = 0 then 0.0 else float_of_int delta /. float_of_int base *. 100.0

let render r =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "overhead report for %s%s" r.program
    (match r.budget with
    | Some b -> Printf.sprintf " (budget %d)" b
    | None -> "");
  line "baseline: %d cycles, %d instructions" r.base.base_cycles
    r.base.base_instructions;
  line "";
  line "overhead by mode (Table 1)";
  line "%-14s %12s %12s %9s %14s %9s" "mode" "cycles" "+cycles" "ovhd%"
    "instructions" "ovhd%";
  List.iter
    (fun row ->
      line "%-14s %12d %12d %8.1f%% %14d %8.1f%%" row.mode row.cycles
        row.delta_cycles
        (pct row.delta_cycles r.base.base_cycles)
        row.instructions
        (pct row.delta_instructions r.base.base_instructions))
    r.rows;
  List.iter (fun (m, why) -> line "%-14s %s" m why) r.failures;
  line "";
  line "cycle delta attributed to probe categories";
  line "%-14s %14s %14s %14s %14s %12s %12s" "mode"
    (category_name Path_register)
    (category_name Table_commit) (category_name Cct_probe)
    (category_name Counter_read) "sum" "delta";
  let mismatch = ref false in
  List.iter
    (fun row ->
      let cell c =
        match List.find_opt (fun (a : attribution) -> a.category = c) row.attributions with
        | Some a -> a
        | None -> { category = c; probes = 0; cycles = 0; instructions = 0 }
      in
      let sum =
        List.fold_left (fun acc (a : attribution) -> acc + a.cycles) 0 row.attributions
      in
      if
        sum <> row.delta_cycles
        || List.fold_left (fun acc (a : attribution) -> acc + a.instructions) 0 row.attributions
           <> row.delta_instructions
      then mismatch := true;
      line "%-14s %14d %14d %14d %14d %12d %12d" row.mode
        (cell Path_register).cycles (cell Table_commit).cycles
        (cell Cct_probe).cycles (cell Counter_read).cycles sum
        row.delta_cycles)
    r.rows;
  line "";
  line "exact executed-probe counts";
  line "%-14s %14s %14s %14s %14s" "mode"
    (category_name Path_register)
    (category_name Table_commit) (category_name Cct_probe)
    (category_name Counter_read);
  List.iter
    (fun row ->
      let cell c =
        match List.find_opt (fun (a : attribution) -> a.category = c) row.attributions with
        | Some a -> a.probes
        | None -> 0
      in
      line "%-14s %14d %14d %14d %14d" row.mode (cell Path_register)
        (cell Table_commit) (cell Cct_probe) (cell Counter_read))
    r.rows;
  (match check r with
  | Ok () when not !mismatch -> line "attribution: ok"
  | Ok () -> line "attribution: MISMATCH (render disagrees with check)"
  | Error msg -> line "attribution: MISMATCH (%s)" msg);
  line "";
  line "event-counter perturbation (Table 2)";
  Printf.bprintf buf "%-22s %14s" "event" "baseline";
  List.iter (fun row -> Printf.bprintf buf " %14s" row.mode) r.rows;
  Buffer.add_char buf '\n';
  List.iter
    (fun (ev, bv) ->
      Printf.bprintf buf "%-22s %14d" ev bv;
      List.iter
        (fun row ->
          let v =
            match List.assoc_opt ev row.counters with Some v -> v | None -> 0
          in
          Printf.bprintf buf " %14d" v)
        r.rows;
      Buffer.add_char buf '\n')
    r.base.base_counters;
  Buffer.contents buf

(* {2 JSON} *)

let json_escape = Pp_telemetry.Trace.json_escape

let to_json r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let counters cs =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v) cs)
  in
  add "{\"program\":\"%s\"," (json_escape r.program);
  (match r.budget with
  | Some b -> add "\"budget\":%d," b
  | None -> add "\"budget\":null,");
  add "\"baseline\":{\"cycles\":%d,\"instructions\":%d,\"counters\":{%s}},"
    r.base.base_cycles r.base.base_instructions (counters r.base.base_counters);
  add "\"modes\":[";
  List.iteri
    (fun i row ->
      if i > 0 then add ",";
      add
        "{\"mode\":\"%s\",\"cycles\":%d,\"instructions\":%d,\"delta_cycles\":%d,\"delta_instructions\":%d,"
        (json_escape row.mode) row.cycles row.instructions row.delta_cycles
        row.delta_instructions;
      add "\"overhead_pct\":%.4f," (pct row.delta_cycles r.base.base_cycles);
      add "\"attribution\":[";
      List.iteri
        (fun j a ->
          if j > 0 then add ",";
          add
            "{\"category\":\"%s\",\"probes\":%d,\"cycles\":%d,\"instructions\":%d}"
            (category_name a.category) a.probes a.cycles a.instructions)
        row.attributions;
      add "],\"counters\":{%s}}" (counters row.counters))
    r.rows;
  add "],\"failures\":[";
  List.iteri
    (fun i (m, why) ->
      if i > 0 then add ",";
      add "{\"mode\":\"%s\",\"reason\":\"%s\"}" (json_escape m)
        (json_escape why))
    r.failures;
  add "],\"attribution_check\":\"%s\"}"
    (match check r with Ok () -> "ok" | Error _ -> "mismatch");
  Buffer.contents buf
