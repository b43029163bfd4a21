open Pp_ir
module Profile = Pp_core.Profile
module Ball_larus = Pp_core.Ball_larus
module Cct = Pp_core.Cct
module Edge_profile = Pp_core.Edge_profile

type source = Context_sensitive | Flat

type proc_summary = {
  weights : int array;
  hot_path : Block.label list;
}

type site_calls = {
  caller : string;
  site : Instr.site;
  callee : string;
  calls : int;
}

type t = {
  source : source;
  procs : (string * proc_summary) list;
  sites : site_calls list;
  callee_totals : (string * int) list;
  global_heat : (string * int) list;
}

(* --- static global-reference tracking --- *)

(* Registers whose only definitions in the whole procedure load the address
   of one particular global: the hoisted-base-pointer case a block-local
   scan would miss. *)
let stable_syms ~is_global (p : Proc.t) =
  let defs = Hashtbl.create 16 in
  (* reg -> Some gname while consistent, None once poisoned *)
  Proc.iter_instrs
    (fun _ instr ->
      let poison r = Hashtbl.replace defs r None in
      match instr with
      | Instr.Iconst_sym (rd, s) when is_global s -> (
          match Hashtbl.find_opt defs rd with
          | None -> Hashtbl.replace defs rd (Some s)
          | Some (Some s') when s' = s -> ()
          | Some _ -> poison rd)
      | instr -> List.iter poison (Instr.idefs instr))
    p;
  let stable = Hashtbl.create 8 in
  Hashtbl.iter
    (fun r v -> match v with Some g -> Hashtbl.replace stable r g | None -> ())
    defs;
  stable

let block_refs (prog : Program.t) (p : Proc.t) =
  let is_global s = Program.find_global prog s <> None in
  let stable = stable_syms ~is_global p in
  Array.map
    (fun (b : Block.t) ->
      let local = Hashtbl.create 8 in
      let refs = Hashtbl.create 8 in
      let lookup r =
        match Hashtbl.find_opt local r with
        | Some v -> v
        | None -> Hashtbl.find_opt stable r
      in
      let set r g = Hashtbl.replace local r (Some g) in
      let clear r = Hashtbl.replace local r None in
      let note r =
        match lookup r with
        | Some g ->
            Hashtbl.replace refs g
              (1 + Option.value ~default:0 (Hashtbl.find_opt refs g))
        | None -> ()
      in
      List.iter
        (fun instr ->
          match instr with
          | Instr.Iconst_sym (rd, s) ->
              if is_global s then set rd s else clear rd
          | Instr.Ibinop ((Instr.Add | Instr.Sub), rd, r1, r2) -> (
              match (lookup r1, lookup r2) with
              | Some g, None | None, Some g -> set rd g
              | _ -> clear rd)
          | Instr.Ibinop_imm ((Instr.Add | Instr.Sub), rd, rs, _) -> (
              match lookup rs with Some g -> set rd g | None -> clear rd)
          | Instr.Load (rd, rs, _) ->
              note rs;
              clear rd
          | Instr.Store (_, rb, _) -> note rb
          | Instr.Fload (_, rs, _) -> note rs
          | Instr.Fstore (_, rb, _) -> note rb
          | instr -> List.iter clear (Instr.idefs instr))
        b.Block.instrs;
      Hashtbl.fold (fun g n acc -> (g, n) :: acc) refs []
      |> List.sort compare)
    p.Proc.blocks

(* --- shared assembly --- *)

let sorted_assoc tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let add tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Frequency-based heat: every reference in block [b] is charged [w(b)]. *)
let freq_heat prog procs =
  let heat = Hashtbl.create 16 in
  List.iter
    (fun (name, ps) ->
      match Program.find_proc prog name with
      | None -> ()
      | Some p ->
          let refs = block_refs prog p in
          Array.iteri
            (fun l per_g ->
              if l < Array.length ps.weights && ps.weights.(l) > 0 then
                List.iter
                  (fun (g, n) -> add heat g (n * ps.weights.(l)))
                  per_g)
            refs)
    procs;
  heat

let of_paths ~cct (prog : Program.t) (profile : Profile.t) =
  let miss_heat = Hashtbl.create 16 in
  let procs =
    List.filter_map
      (fun (pp : Profile.proc_profile) ->
        match Program.find_proc prog pp.Profile.proc with
        | None -> None
        | Some p ->
            let n = Proc.num_blocks p in
            let w = Array.make n 0 in
            let refs = block_refs prog p in
            let best = ref None in
            List.iter
              (fun (sum, (m : Profile.path_metrics)) ->
                let path = Profile.decode pp sum in
                let blocks = path.Ball_larus.blocks in
                List.iter
                  (fun l -> if l >= 0 && l < n then w.(l) <- w.(l) + m.Profile.freq)
                  blocks;
                (* Apportion the path's D-miss total over the globals its
                   blocks reference (proportional to reference count). *)
                if m.Profile.m0 > 0 then begin
                  let per_g = Hashtbl.create 8 in
                  let total = ref 0 in
                  List.iter
                    (fun l ->
                      if l >= 0 && l < Array.length refs then
                        List.iter
                          (fun (g, c) ->
                            add per_g g c;
                            total := !total + c)
                          refs.(l))
                    blocks;
                  if !total > 0 then
                    Hashtbl.iter
                      (fun g c ->
                        add miss_heat g (m.Profile.m0 * c / !total))
                      per_g
                end;
                match !best with
                | Some (bf, _) when bf >= m.Profile.freq -> ()
                | _ -> best := Some (m.Profile.freq, blocks))
              pp.Profile.paths;
            let hot_path =
              match !best with
              | Some (f, blocks) when f > 0 -> blocks
              | _ -> []
            in
            Some (pp.Profile.proc, { weights = w; hot_path }))
      profile.Profile.procs
    |> List.sort compare
  in
  let site_tbl = Hashtbl.create 64 in
  let totals = Hashtbl.create 16 in
  Cct.iter
    (fun node ->
      let caller = Cct.proc node in
      List.iter
        (fun (e : _ Cct.edge) ->
          let callee = Cct.proc e.Cct.target in
          add site_tbl (caller, e.Cct.site, callee) e.Cct.calls;
          add totals callee e.Cct.calls)
        (Cct.edges node))
    cct;
  let sites =
    sorted_assoc site_tbl
    |> List.map (fun ((caller, site, callee), calls) ->
           { caller; site; callee; calls })
  in
  let global_heat =
    if Hashtbl.length miss_heat > 0 then sorted_assoc miss_heat
    else sorted_assoc (freq_heat prog procs)
  in
  {
    source = Context_sensitive;
    procs;
    sites;
    callee_totals = sorted_assoc totals;
    global_heat;
  }

let block_counts plan edges =
  let cfg = Edge_profile.cfg plan in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((e : Pp_graph.Digraph.edge), c) ->
      match Cfg.label_of_vertex cfg e.Pp_graph.Digraph.dst with
      | Some l -> add tbl l c
      | None -> ())
    edges;
  sorted_assoc tbl

let of_edges (prog : Program.t) counts =
  let procs =
    List.filter_map
      (fun (name, blocks) ->
        match Program.find_proc prog name with
        | None -> None
        | Some p ->
            let w = Array.make (Proc.num_blocks p) 0 in
            List.iter
              (fun (l, c) ->
                if l >= 0 && l < Array.length w then w.(l) <- w.(l) + c)
              blocks;
            Some (name, { weights = w; hot_path = [] }))
      counts
    |> List.sort compare
  in
  (* Static attribution: a call instruction executes as often as its
     block. *)
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (name, ps) ->
      match Program.find_proc prog name with
      | None -> ()
      | Some p ->
          Array.iteri
            (fun l (b : Block.t) ->
              let w = if l < Array.length ps.weights then ps.weights.(l) else 0 in
              List.iter
                (fun instr ->
                  match instr with
                  | Instr.Call { callee; _ } -> add totals callee w
                  | _ -> ())
                b.Block.instrs)
            p.Proc.blocks)
    procs;
  {
    source = Flat;
    procs;
    sites = [];
    callee_totals = sorted_assoc totals;
    global_heat = sorted_assoc (freq_heat prog procs);
  }
