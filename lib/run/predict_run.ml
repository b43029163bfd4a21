module Config = Pp_machine.Config
module Event = Pp_machine.Event
module Counters = Pp_machine.Counters
module Machine = Pp_machine.Machine
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Engine = Pp_vm.Engine
module Interp = Pp_vm.Interp
module Predict = Pp_analysis.Predict
module Ball_larus = Pp_core.Ball_larus
module Digraph = Pp_graph.Digraph
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Program = Pp_ir.Program

type verdict = Confirmed | Refuted | Vacuous

let verdict_name = function
  | Confirmed -> "CONFIRMED"
  | Refuted -> "REFUTED"
  | Vacuous -> "VACUOUS"

type mstat = {
  metric : string;
  measured : int;
  lo : int;
  hi : int option;
  mverdict : verdict;
}

type row = {
  proc : string;
  sum : int;
  freq : int;
  path_desc : string;
  stats : mstat list;
  rverdict : verdict;
}

type outcome = {
  mode : Instrument.mode;
  engine : Engine.kind;
  injected : string option;
  rows : row list;
  windows : int;
  anomalies : string list;
  trapped : bool;
  confirmed : int;
  refuted : int;
  vacuous : int;
  mean_slack : float;
}

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

type inject = Dcache_size | Icache_line

let injects = [ Dcache_size; Icache_line ]

let inject_name = function
  | Dcache_size -> "dcache"
  | Icache_line -> "icache"

let inject_of_string = function
  | "dcache" -> Some Dcache_size
  | "icache" -> Some Icache_line
  | _ -> None

let apply_inject inj (c : Config.t) =
  match inj with
  | Dcache_size ->
      Config.validate
        { c with dcache = { c.dcache with size_bytes = c.dcache.size_bytes / 2 } }
  | Icache_line ->
      Config.validate
        { c with icache = { c.icache with line_bytes = c.icache.line_bytes / 2 } }

(* ------------------------------------------------------------------ *)
(* The measurement oracle                                              *)

(* Per-procedure structure the oracle navigates by: the Ball-Larus
   numbering (None = untracked), the original block count (labels below
   it are original blocks), the instrumented CFG's successor arrays,
   whose edge existence distinguishes an in-activation transition from
   an equal-frame sibling call, and the per-path-sum statistics of the
   procedure's closed windows. *)
type pinfo = {
  bl : Ball_larus.t option;
  n_orig : int;
  succ : Block.label array array;
  commits : (int, wstat) Hashtbl.t;
}

and wstat = {
  mutable freq : int;
  mutable tc : int;
  mutable td : int;
  mutable ti : int;
  mutable ts : int;
}

(* A window accumulates its path sum step by step as its original blocks
   are probed; [wsum] turns -1 at the first missing step, and the close
   then re-encodes [brev] to word the anomaly. *)
type window = {
  wsrc : Ball_larus.source;
  mutable brev : Block.label list;  (* original labels, reversed *)
  mutable wsum : int;
  mutable wc : int;  (* cycles *)
  mutable wd : int;  (* combined D-cache misses *)
  mutable wi : int;  (* I-cache misses *)
  mutable ws : int;  (* stall cycles, all three sources *)
}

type activation = {
  aframe : int;
  aproc : string;
  info : pinfo;
  mutable last : Block.label;  (* last probed instrumented label *)
  mutable win : window option;
}

let untracked =
  { bl = None; n_orig = 0; succ = [||]; commits = Hashtbl.create 1 }

let fresh_window wsrc =
  { wsrc; brev = []; wsum = 0; wc = 0; wd = 0; wi = 0; ws = 0 }

(* Append original block [label] to the window, adding its step. *)
let extend bl w label =
  let step =
    match w.brev with
    | [] -> Ball_larus.entry_step bl w.wsrc label
    | prev :: _ -> Ball_larus.step bl ~src:prev ~dst:label
  in
  w.wsum <- (if w.wsum < 0 || step < 0 then -1 else w.wsum + step);
  w.brev <- label :: w.brev

let edge_exists info a b =
  a >= 0
  && a < Array.length info.succ
  &&
  let succ = info.succ.(a) in
  let rec mem i = i < Array.length succ && (succ.(i) = b || mem (i + 1)) in
  mem 0

let ixc = Counters.ix Event.Cycles
let ixd = Counters.ix Event.Dcache_misses
let ixi = Counters.ix Event.Icache_misses
let ixm = Counters.ix Event.Mispredict_stalls
let ixb = Counters.ix Event.Store_buffer_stalls
let ixf = Counters.ix Event.Fp_stalls

type oracle = {
  mutable anomalies : string list;
  mutable stack : activation list;
  totals : int array;  (* the live counter array *)
  mutable lc : int;
  mutable ld : int;
  mutable li : int;
  mutable ls : int;
  pinfos : (string, pinfo) Hashtbl.t;
}

let anomaly o msg = o.anomalies <- msg :: o.anomalies

(* Attribute the counter delta since the previous probe to the open
   window of the topmost activation. *)
let flush_delta o =
  let c = o.totals.(ixc)
  and d = o.totals.(ixd)
  and i = o.totals.(ixi)
  and s = o.totals.(ixm) + o.totals.(ixb) + o.totals.(ixf) in
  (match o.stack with
  | { win = Some w; _ } :: _ ->
      w.wc <- w.wc + c - o.lc;
      w.wd <- w.wd + d - o.ld;
      w.wi <- w.wi + i - o.li;
      w.ws <- w.ws + s - o.ls
  | _ -> ());
  o.lc <- c;
  o.ld <- d;
  o.li <- i;
  o.ls <- s

let commit info w sum =
  let st =
    match Hashtbl.find_opt info.commits sum with
    | Some st -> st
    | None ->
        let st = { freq = 0; tc = 0; td = 0; ti = 0; ts = 0 } in
        Hashtbl.add info.commits sum st;
        st
  in
  st.freq <- st.freq + 1;
  st.tc <- st.tc + w.wc;
  st.td <- st.td + w.wd;
  st.ti <- st.ti + w.wi;
  st.ts <- st.ts + w.ws

let close o act sink =
  match act.win with
  | None -> ()
  | Some w -> (
      act.win <- None;
      match (act.info.bl, w.brev) with
      | None, _ -> ()
      | Some _, [] ->
          if w.wc <> 0 || w.wd <> 0 || w.wi <> 0 || w.ws <> 0 then
            anomaly o
              (Printf.sprintf "%s: counter deltas in a window with no blocks"
                 act.aproc)
      | Some bl, last :: _ -> (
          let exit = Ball_larus.exit_step bl sink ~last in
          if w.wsum >= 0 && exit >= 0 then commit act.info w (w.wsum + exit)
          else
            let path =
              { Ball_larus.source = w.wsrc; blocks = List.rev w.brev; sink }
            in
            match Ball_larus.encode bl path with
            | sum -> commit act.info w sum
            | exception Invalid_argument msg ->
                anomaly o
                  (Format.asprintf "%s: unencodable measured window %a (%s)"
                     act.aproc Ball_larus.pp_path path msg)))

let probe o ~proc ~label ~frame ~iregs:_ =
  flush_delta o;
  (* Returns: every activation with a frame below the probing one is
     done; its window ran to the procedure's exit. *)
  let rec pops () =
    match o.stack with
    | a :: rest when a.aframe < frame ->
        o.stack <- rest;
        close o a Ball_larus.To_exit;
        pops ()
    | _ -> ()
  in
  pops ();
  match o.stack with
  | a :: _
    when a.aframe = frame && String.equal a.aproc proc
         && edge_exists a.info a.last label ->
      (* In-activation transition. *)
      a.last <- label;
      if label < a.info.n_orig then (
        match (a.win, a.info.bl) with
        | Some w, Some bl -> (
            match w.brev with
            | prev :: _ -> (
                match Ball_larus.backedge_between bl ~src:prev ~dst:label with
                | Some e ->
                    close o a (Ball_larus.Into_backedge e);
                    let next = fresh_window (Ball_larus.After_backedge e) in
                    extend bl next label;
                    a.win <- Some next
                | None -> extend bl w label)
            | [] -> extend bl w label)
        | _ -> ())
  | _ ->
      (* New activation; an equal-frame top is a finished sibling. *)
      (match o.stack with
      | a :: rest when a.aframe = frame ->
          o.stack <- rest;
          close o a Ball_larus.To_exit
      | _ -> ());
      let info =
        match Hashtbl.find_opt o.pinfos proc with
        | Some i -> i
        | None -> untracked
      in
      let win =
        match info.bl with
        | None -> None
        | Some bl ->
            let w = fresh_window Ball_larus.From_entry in
            if label < info.n_orig then extend bl w label;
            Some w
      in
      o.stack <- { aframe = frame; aproc = proc; info; last = label; win } :: o.stack

let finish o ~trapped =
  if trapped then o.stack <- []
  else begin
    flush_delta o;
    List.iter (fun a -> close o a Ball_larus.To_exit) o.stack;
    o.stack <- []
  end

(* ------------------------------------------------------------------ *)
(* Verdict assembly                                                    *)

let tail_zero =
  { Predict.t_cycles = Some 0; t_dmiss = Some 0; t_imiss = Some 0; t_stalls = Some 0 }

let mk_stat ~vacuous_slack ~freq ~once_n metric measured (itv : Predict.itv)
    ~once ~tail =
  let lo = freq * itv.lo in
  let hi =
    match (itv.hi, tail) with
    | Some h, Some t -> Some ((freq * h) + (once_n * once) + (freq * t))
    | _ -> None
  in
  let mverdict =
    if measured < lo then Refuted
    else
      match hi with
      | Some h when measured > h -> Refuted
      | None -> Vacuous
      | Some h ->
          (* Loose iff more than [vacuous_slack] of slack per window, even
             against a zero measurement. *)
          if
            float_of_int (h - lo)
            > vacuous_slack *. float_of_int (max freq measured)
          then Vacuous
          else Confirmed
  in
  { metric; measured; lo; hi; mverdict }

let worst a b =
  match (a, b) with
  | Refuted, _ | _, Refuted -> Refuted
  | Vacuous, _ | _, Vacuous -> Vacuous
  | Confirmed, Confirmed -> Confirmed

let rows_of_commits t ~vacuous_slack pinfos =
  List.concat_map
    (fun proc ->
      let measured =
        match Hashtbl.find_opt pinfos proc with
        | None -> []
        | Some info ->
            Hashtbl.fold (fun sum st acc -> (sum, st) :: acc) info.commits []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      if measured = [] then []
      else
        let bl =
          match Predict.numbering t proc with Some bl -> bl | None -> assert false
        in
        let decoded =
          List.map
            (fun (sum, st) ->
              (sum, st, Ball_larus.decode bl sum, Predict.predict t ~proc ~sum))
            measured
        in
        (* Entries of the loop at header [h]: windows executing [h] other
           than by arriving along one of its backedges. *)
        let entries h =
          List.fold_left
            (fun acc (_, st, (path : Ball_larus.path), _) ->
              let contains = List.mem h path.blocks in
              let via_backedge =
                match path.source with
                | Ball_larus.After_backedge e -> e.Digraph.dst = h
                | Ball_larus.From_entry -> false
              in
              if contains && not via_backedge then acc + st.freq else acc)
            0 decoded
        in
        List.map
          (fun (sum, st, path, (b : Predict.exec_bounds)) ->
            let freq = st.freq in
            let tail = if b.to_exit then Predict.tail_bound t proc else tail_zero in
            let once_n =
              match b.header with Some h -> min freq (entries h) | None -> 0
            in
            let mk = mk_stat ~vacuous_slack ~freq ~once_n in
            let stats =
              [
                mk "cycles" st.tc b.per_exec.cycles ~once:b.cycles_once
                  ~tail:tail.t_cycles;
                mk "dmiss" st.td b.per_exec.dmiss ~once:b.dmiss_once
                  ~tail:tail.t_dmiss;
                mk "imiss" st.ti b.per_exec.imiss ~once:b.imiss_once
                  ~tail:tail.t_imiss;
                mk "stalls" st.ts b.per_exec.stalls ~once:0 ~tail:tail.t_stalls;
              ]
            in
            let rverdict =
              List.fold_left (fun v s -> worst v s.mverdict) Confirmed stats
            in
            {
              proc;
              sum;
              freq;
              path_desc = Format.asprintf "%a" Ball_larus.pp_path path;
              stats;
              rverdict;
            })
          decoded)
    (Predict.procs t)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run ?options ?(config = Config.default) ?inject ?engine ?budget
    ?(vacuous_slack = 8.0) ~mode prog =
  let config = Config.validate config in
  let exec_config =
    match inject with None -> config | Some inj -> apply_inject inj config
  in
  let session =
    Driver.prepare ?options ~config:exec_config ?max_instructions:budget ?engine
      ~mode prog
  in
  let t =
    Predict.create ~config ~original:session.original
      ~instrumented:session.instrumented ()
  in
  let pinfos = Hashtbl.create 16 in
  Array.iter
    (fun (ip : Proc.t) ->
      let n_orig =
        match Program.find_proc session.original ip.name with
        | Some op -> Proc.num_blocks op
        | None -> 0
      in
      let succ =
        Array.map (fun b -> Array.of_list (Block.successors b)) ip.blocks
      in
      Hashtbl.add pinfos ip.name
        {
          bl = Predict.numbering t ip.name;
          n_orig;
          succ;
          commits = Hashtbl.create 64;
        })
    session.instrumented.procs;
  let totals = Counters.raw_totals (Machine.counters (Interp.machine session.vm)) in
  let o =
    {
      anomalies = [];
      stack = [];
      totals;
      lc = 0;
      ld = 0;
      li = 0;
      ls = 0;
      pinfos;
    }
  in
  Interp.set_block_probe session.vm (fun ~proc ~label ~frame ~iregs ->
      probe o ~proc ~label ~frame ~iregs);
  let trapped =
    match Driver.run session with
    | (_ : Interp.result) -> false
    | exception Interp.Trap _ -> true
  in
  finish o ~trapped;
  let rows = rows_of_commits t ~vacuous_slack pinfos in
  let count v = List.length (List.filter (fun r -> r.rverdict = v) rows) in
  let slacks =
    List.concat_map
      (fun (r : row) ->
        List.filter_map
          (fun s ->
            match s.hi with
            | Some h ->
                Some
                  (float_of_int (h - s.lo)
                  /. float_of_int (max r.freq s.measured))
            | None -> None)
          r.stats)
      rows
  in
  let mean_slack =
    match slacks with
    | [] -> 0.
    | _ -> List.fold_left ( +. ) 0. slacks /. float_of_int (List.length slacks)
  in
  {
    mode;
    engine = Engine.kind session.engine;
    injected = Option.map inject_name inject;
    rows;
    windows =
      Hashtbl.fold
        (fun _ info n -> Hashtbl.fold (fun _ st n -> n + st.freq) info.commits n)
        pinfos 0;
    anomalies = List.rev o.anomalies;
    trapped;
    confirmed = count Confirmed;
    refuted = count Refuted;
    vacuous = count Vacuous;
    mean_slack;
  }

let exit_code outcomes =
  if List.exists (fun o -> o.refuted > 0 || o.anomalies <> []) outcomes then 2
  else 0

let errors o =
  let refutations =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun s ->
            if s.mverdict = Refuted then
              Some
                (Printf.sprintf
                   "REFUTED %s/sum=%d %s: measured %d outside [%d, %s] (%s, freq %d)"
                   r.proc r.sum s.metric s.measured s.lo
                   (match s.hi with Some h -> string_of_int h | None -> "inf")
                   r.path_desc r.freq)
            else None)
          r.stats)
      o.rows
  in
  refutations @ List.map (fun a -> "ANOMALY " ^ a) o.anomalies

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_bound ppf s =
  Format.fprintf ppf "%d [%d,%s]" s.measured s.lo
    (match s.hi with Some h -> string_of_int h | None -> "inf")

let render_table ppf o =
  Format.fprintf ppf "pp predict: mode %s, engine %s%s%s@."
    (Instrument.mode_name o.mode)
    (Engine.kind_name o.engine)
    (match o.injected with Some i -> ", injected " ^ i | None -> "")
    (if o.trapped then " (trapped)" else "");
  Format.fprintf ppf "%-14s %5s %6s  %-20s %-16s %-16s %-16s %-9s@." "proc" "sum"
    "freq" "cycles" "dmiss" "imiss" "stalls" "verdict";
  List.iter
    (fun r ->
      let cell s = Format.asprintf "%a" pp_bound s in
      match r.stats with
      | [ c; d; i; s ] ->
          Format.fprintf ppf "%-14s %5d %6d  %-20s %-16s %-16s %-16s %-9s@."
            r.proc r.sum r.freq (cell c) (cell d) (cell i) (cell s)
            (verdict_name r.rverdict)
      | _ -> assert false)
    o.rows;
  Format.fprintf ppf
    "paths %d  windows %d  confirmed %d  vacuous %d  refuted %d  mean-slack %.2f@."
    (List.length o.rows) o.windows o.confirmed o.vacuous o.refuted o.mean_slack;
  List.iter (fun a -> Format.fprintf ppf "anomaly: %s@." a) o.anomalies

let render_json ppf outcomes =
  let str s = "\"" ^ Pp_telemetry.Trace.json_escape s ^ "\"" in
  let opt_int = function Some h -> string_of_int h | None -> "null" in
  let sep ppf () = Format.fprintf ppf "," in
  let pp_stat ppf s =
    Format.fprintf ppf
      "{\"metric\":%s,\"measured\":%d,\"lo\":%d,\"hi\":%s,\"verdict\":%s}"
      (str s.metric) s.measured s.lo (opt_int s.hi) (str (verdict_name s.mverdict))
  in
  let pp_row ppf r =
    Format.fprintf ppf
      "{\"proc\":%s,\"sum\":%d,\"freq\":%d,\"path\":%s,\"verdict\":%s,\"metrics\":[%a]}"
      (str r.proc) r.sum r.freq (str r.path_desc) (str (verdict_name r.rverdict))
      (Format.pp_print_list ~pp_sep:sep pp_stat)
      r.stats
  in
  let pp_outcome ppf o =
    Format.fprintf ppf
      "{\"mode\":%s,\"engine\":%s,\"inject\":%s,\"trapped\":%b,\"windows\":%d,@\n\
      \ \"confirmed\":%d,\"vacuous\":%d,\"refuted\":%d,\"mean_slack\":%.4f,@\n\
      \ \"anomalies\":[%a],@\n\
      \ \"rows\":[%a]}"
      (str (Instrument.mode_name o.mode))
      (str (Engine.kind_name o.engine))
      (match o.injected with Some i -> str i | None -> "null")
      o.trapped o.windows o.confirmed o.vacuous o.refuted o.mean_slack
      (Format.pp_print_list ~pp_sep:sep (fun ppf a ->
           Format.pp_print_string ppf (str a)))
      o.anomalies
      (Format.pp_print_list ~pp_sep:sep pp_row)
      o.rows
  in
  Format.fprintf ppf "{\"outcomes\":[%a]}@."
    (Format.pp_print_list ~pp_sep:sep pp_outcome)
    outcomes
