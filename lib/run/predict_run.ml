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
module Cfg = Pp_ir.Cfg

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

module Itbl = Hashtbl.Make (Int)

(* Per-procedure tables, built once per run, so that a probe resolves a
   block-to-block step by scanning one short array.  Original labels
   index [entry], [exit], [preds] and [codes]; backedges are numbered in
   {!Ball_larus.backedges} order.  A transition code is the step's value
   ([>= 0]), [-1] for a missing step, or [-2 - i] when the transition
   takes backedge [i] (checked before the step, as the instrumenter
   commits there). *)
type pinfo = {
  name : string;
  bl : Ball_larus.t option;  (* None = untracked *)
  n_orig : int;  (* original block count; 0 when untracked *)
  ipreds : Block.label array array;
      (* instrumented predecessors per instrumented label: whether the
         instrumented CFG has an edge from the last probed block tells an
         in-activation transition from an equal-frame sibling call *)
  entry : int array;  (* From_entry step to each original label *)
  exit : int array;  (* To_exit step from each original label *)
  preds : Block.label array array;  (* original predecessors ... *)
  codes : int array array;  (* ... and their transition codes *)
  back : Digraph.edge array;
  after : int array;  (* per backedge: the After_backedge entry step *)
  into : int array;  (* per backedge: the Into_backedge exit step *)
  commits : commits;
}

(* Closed windows by path sum: five cells per sum (windows, cycles,
   D-misses, I-misses, stalls).  Chosen once per procedure. *)
and commits =
  | Flat of int array  (* the cells of sum [s] at [5 * s], every sum *)
  | Sparse of int array Itbl.t  (* the cells of each measured sum *)

(* One procedure activation, pooled.  Its window (open iff the procedure
   is tracked) accumulates the path sum step by step as original blocks
   are probed; [wsum] turns -1 at the first missing step.  The window's
   blocks occupy [blocks.(wbase) ..] of the oracle's shared buffer and
   are read back only to word an anomaly. *)
type activation = {
  mutable aframe : int;
  mutable info : pinfo;
  mutable last : Block.label;  (* last probed instrumented label *)
  mutable wsrc : int;  (* -1 = From_entry, else the source backedge *)
  mutable wsum : int;
  mutable wprev : Block.label;  (* last original label; -1 = none yet *)
  mutable wbase : int;
  mutable wc : int;  (* cycles *)
  mutable wd : int;  (* combined D-cache misses *)
  mutable wi : int;  (* I-cache misses *)
  mutable ws : int;  (* stall cycles, all three sources *)
}

let untracked =
  {
    name = "";
    bl = None;
    n_orig = 0;
    ipreds = [||];
    entry = [||];
    exit = [||];
    preds = [||];
    codes = [||];
    back = [||];
    after = [||];
    into = [||];
    commits = Flat [||];
  }

(* The largest numbering whose table is flat: its 4096 x 5 cells cost
   160 KB at most, and a commit is five indexed adds with no lookup.
   Above it, cells are allocated only for the sums a run measures. *)
let max_flat_paths = 4096

let pinfo t (ip : Proc.t) =
  let ipreds = Array.make (Proc.num_blocks ip) [] in
  Array.iter
    (fun (b : Block.t) ->
      List.iter
        (fun s -> ipreds.(s) <- b.label :: ipreds.(s))
        (Block.successors b))
    ip.blocks;
  let ipreds = Array.map Array.of_list ipreds in
  match Predict.numbering t ip.name with
  | None -> { untracked with name = ip.name; ipreds }
  | Some bl ->
      let cfg = Ball_larus.cfg bl in
      let n_orig = Proc.num_blocks cfg.proc in
      let back = Array.of_list (Ball_larus.backedges bl) in
      let back_index (e : Digraph.edge) =
        let rec find i =
          if back.(i).Digraph.id = e.id then i else find (i + 1)
        in
        find 0
      in
      let pairs = Array.make n_orig [] in
      Digraph.iter_edges
        (fun (e : Digraph.edge) ->
          match
            (Cfg.label_of_vertex cfg e.src, Cfg.label_of_vertex cfg e.dst)
          with
          | Some u, Some v when not (List.mem_assoc u pairs.(v)) ->
              let code =
                match Ball_larus.backedge_between bl ~src:u ~dst:v with
                | Some b -> -2 - back_index b
                | None -> Ball_larus.step bl ~src:u ~dst:v
              in
              pairs.(v) <- (u, code) :: pairs.(v)
          | _ -> ())
        cfg.graph;
      {
        name = ip.name;
        bl = Some bl;
        n_orig;
        ipreds;
        entry = Array.init n_orig (Ball_larus.entry_step bl From_entry);
        exit =
          Array.init n_orig (fun l -> Ball_larus.exit_step bl To_exit ~last:l);
        preds = Array.map (fun l -> Array.of_list (List.map fst l)) pairs;
        codes = Array.map (fun l -> Array.of_list (List.map snd l)) pairs;
        back;
        after =
          Array.map
            (fun (e : Digraph.edge) ->
              Ball_larus.entry_step bl (Ball_larus.After_backedge e) e.dst)
            back;
        into =
          Array.map
            (fun (e : Digraph.edge) ->
              Ball_larus.exit_step bl (Ball_larus.Into_backedge e) ~last:e.src)
            back;
        commits =
          (let n = Ball_larus.num_paths bl in
           if n <= max_flat_paths then Flat (Array.make (5 * n) 0)
           else Sparse (Itbl.create 64));
      }

let rec mem_label (a : Block.label array) x i =
  i < Array.length a && (Array.unsafe_get a i = x || mem_label a x (i + 1))

let rec find_code (preds : Block.label array) codes prev i =
  if i >= Array.length preds then -1
  else if Array.unsafe_get preds i = prev then Array.unsafe_get codes i
  else find_code preds codes prev (i + 1)

let ixc = Counters.ix Event.Cycles
let ixd = Counters.ix Event.Dcache_misses
let ixi = Counters.ix Event.Icache_misses
let ixm = Counters.ix Event.Mispredict_stalls
let ixb = Counters.ix Event.Store_buffer_stalls
let ixf = Counters.ix Event.Fp_stalls

type oracle = {
  mutable anomalies : string list;
  mutable acts : activation array;  (* [0 .. depth - 1] live, top last *)
  mutable depth : int;
  mutable blocks : Block.label array;  (* window blocks, nested segments *)
  mutable top : int;  (* first free slot of [blocks] *)
  totals : int array;  (* the live counter array *)
  mutable lc : int;
  mutable ld : int;
  mutable li : int;
  mutable ls : int;
  pinfos : (string, pinfo) Hashtbl.t;
}

let anomaly o msg = o.anomalies <- msg :: o.anomalies

let fresh_activation () =
  {
    aframe = 0;
    info = untracked;
    last = 0;
    wsrc = -1;
    wsum = 0;
    wprev = -1;
    wbase = 0;
    wc = 0;
    wd = 0;
    wi = 0;
    ws = 0;
  }

(* Attribute the counter delta since the last flush to the window of the
   topmost activation.  Flushed lazily, only before the top activation
   or its window changes: between two flushes every delta belongs to the
   same window, and the sums are exact. *)
let flush o =
  let t = o.totals in
  let c = t.(ixc)
  and d = t.(ixd)
  and i = t.(ixi)
  and s = t.(ixm) + t.(ixb) + t.(ixf) in
  if o.depth > 0 then begin
    let a = o.acts.(o.depth - 1) in
    a.wc <- a.wc + c - o.lc;
    a.wd <- a.wd + d - o.ld;
    a.wi <- a.wi + i - o.li;
    a.ws <- a.ws + s - o.ls
  end;
  o.lc <- c;
  o.ld <- d;
  o.li <- i;
  o.ls <- s

let open_window o a src =
  a.wsrc <- src;
  a.wsum <- 0;
  a.wprev <- -1;
  a.wbase <- o.top;
  a.wc <- 0;
  a.wd <- 0;
  a.wi <- 0;
  a.ws <- 0

(* Append original block [label] to the top activation's window, adding
   its step. *)
let extend o a label step =
  a.wsum <- (if a.wsum < 0 || step < 0 then -1 else a.wsum + step);
  a.wprev <- label;
  if o.top = Array.length o.blocks then begin
    let grown = Array.make (2 * o.top) 0 in
    Array.blit o.blocks 0 grown 0 o.top;
    o.blocks <- grown
  end;
  Array.unsafe_set o.blocks o.top label;
  o.top <- o.top + 1

(* Add the window of [a] to the five cells at [cells.(i)]. *)
let add_window (cells : int array) i a =
  cells.(i) <- cells.(i) + 1;
  cells.(i + 1) <- cells.(i + 1) + a.wc;
  cells.(i + 2) <- cells.(i + 2) + a.wd;
  cells.(i + 3) <- cells.(i + 3) + a.wi;
  cells.(i + 4) <- cells.(i + 4) + a.ws

let commit info a sum =
  match info.commits with
  | Flat cells -> add_window cells (5 * sum) a
  | Sparse tbl -> (
      match Itbl.find_opt tbl sum with
      | Some cells -> add_window cells 0 a
      | None ->
          let cells = Array.make 5 0 in
          Itbl.add tbl sum cells;
          add_window cells 0 a)

(* Close the top activation's window with sink [-1] (To_exit) or
   backedge [sink], and free its blocks. *)
let close o a sink =
  let info = a.info in
  (match info.bl with
  | None -> ()
  | Some bl ->
      if a.wprev < 0 then begin
        if a.wc <> 0 || a.wd <> 0 || a.wi <> 0 || a.ws <> 0 then
          anomaly o
            (Printf.sprintf "%s: counter deltas in a window with no blocks"
               info.name)
      end
      else
        let exit = if sink < 0 then info.exit.(a.wprev) else info.into.(sink) in
        if a.wsum >= 0 && exit >= 0 then commit info a (a.wsum + exit)
        else
          let edge i = info.back.(i) in
          let path =
            {
              Ball_larus.source =
                (if a.wsrc < 0 then Ball_larus.From_entry
                 else Ball_larus.After_backedge (edge a.wsrc));
              blocks =
                Array.to_list (Array.sub o.blocks a.wbase (o.top - a.wbase));
              sink =
                (if sink < 0 then Ball_larus.To_exit
                 else Ball_larus.Into_backedge (edge sink));
            }
          in
          match Ball_larus.encode bl path with
          | sum -> commit info a sum
          | exception Invalid_argument msg ->
              anomaly o
                (Format.asprintf "%s: unencodable measured window %a (%s)"
                   info.name Ball_larus.pp_path path msg));
  o.top <- a.wbase

(* An in-activation transition of the top activation to [label]; within
   the window, a transition that takes a backedge closes the window
   ([Into_backedge]) and opens the next ([After_backedge]), mirroring
   where the instrumenter commits path sums. *)
let advance o a label ~orig =
  a.last <- label;
  if orig then begin
    let info = a.info in
    let prev = a.wprev in
    (* Only a From_entry window can be empty: an After_backedge window
       opens on the backedge's target. *)
    if prev < 0 then extend o a label info.entry.(label)
    else
      let code = find_code info.preds.(label) info.codes.(label) prev 0 in
      if code >= -1 then extend o a label code
      else begin
        let e = -2 - code in
        flush o;
        close o a e;
        open_window o a e;
        extend o a label info.after.(e)
      end
  end

let pop o =
  let a = o.acts.(o.depth - 1) in
  close o a (-1);
  o.depth <- o.depth - 1

(* The slow path: returns, calls and equal-frame siblings. *)
let enter o info ipreds label ~orig ~frame =
  flush o;
  (* Returns: every activation with a frame below the probing one is
     done; its window ran to the procedure's exit. *)
  while o.depth > 0 && o.acts.(o.depth - 1).aframe < frame do
    pop o
  done;
  let continues =
    o.depth > 0
    &&
    let a = o.acts.(o.depth - 1) in
    a.aframe = frame && a.info == info && mem_label ipreds a.last 0
  in
  if continues then advance o o.acts.(o.depth - 1) label ~orig
  else begin
    (* New activation; an equal-frame top is a finished sibling. *)
    if o.depth > 0 && o.acts.(o.depth - 1).aframe = frame then pop o;
    if o.depth = Array.length o.acts then
      o.acts <-
        Array.append o.acts (Array.init o.depth (fun _ -> fresh_activation ()));
    let a = o.acts.(o.depth) in
    o.depth <- o.depth + 1;
    a.aframe <- frame;
    a.info <- info;
    a.last <- label;
    open_window o a (-1);
    if orig then extend o a label info.entry.(label)
  end

(* The staged probe: everything static about the block is resolved here,
   once; the returned closure runs at every entry.  Its fast path is an
   in-activation transition: same frame, same procedure, and the last
   probed block is an instrumented predecessor. *)
let stage o ~proc ~label =
  let info = Hashtbl.find o.pinfos proc in
  let ipreds = info.ipreds.(label) in
  let orig = label < info.n_orig in
  fun ~frame ~iregs:_ ->
    let depth = o.depth in
    if depth > 0 then begin
      let a = Array.unsafe_get o.acts (depth - 1) in
      if a.aframe = frame && a.info == info && mem_label ipreds a.last 0 then
        advance o a label ~orig
      else enter o info ipreds label ~orig ~frame
    end
    else enter o info ipreds label ~orig ~frame

let finish o ~trapped =
  if not trapped then begin
    flush o;
    while o.depth > 0 do
      pop o
    done
  end;
  o.depth <- 0

(* The measured path sums of a procedure, ascending, with their cells. *)
let measured info =
  match info.commits with
  | Flat cells ->
      let acc = ref [] in
      for sum = (Array.length cells / 5) - 1 downto 0 do
        if cells.(5 * sum) > 0 then
          acc := (sum, Array.sub cells (5 * sum) 5) :: !acc
      done;
      !acc
  | Sparse tbl ->
      Itbl.fold (fun sum cells acc -> (sum, cells) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

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
        | Some info -> measured info
      in
      if measured = [] then []
      else
        let bl =
          match Predict.numbering t proc with Some bl -> bl | None -> assert false
        in
        let decoded =
          List.map
            (fun (sum, cells) ->
              (sum, cells, Ball_larus.decode bl sum, Predict.predict t ~proc ~sum))
            measured
        in
        (* Entries of the loop at each header [h]: windows executing [h]
           other than by arriving along one of its backedges. *)
        let entries = Array.make (Proc.num_blocks (Ball_larus.cfg bl).proc) 0 in
        List.iter
          (fun (_, cells, (path : Ball_larus.path), _) ->
            let via_backedge =
              match path.source with
              | Ball_larus.After_backedge e -> e.Digraph.dst
              | Ball_larus.From_entry -> -1
            in
            List.iter
              (fun h ->
                if h <> via_backedge then entries.(h) <- entries.(h) + cells.(0))
              (List.sort_uniq compare path.blocks))
          decoded;
        List.map
          (fun (sum, cells, path, (b : Predict.exec_bounds)) ->
            let freq = cells.(0) in
            let tail = if b.to_exit then Predict.tail_bound t proc else tail_zero in
            let once_n =
              match b.header with Some h -> min freq entries.(h) | None -> 0
            in
            let mk = mk_stat ~vacuous_slack ~freq ~once_n in
            let stats =
              [
                mk "cycles" cells.(1) b.per_exec.cycles ~once:b.cycles_once
                  ~tail:tail.t_cycles;
                mk "dmiss" cells.(2) b.per_exec.dmiss ~once:b.dmiss_once
                  ~tail:tail.t_dmiss;
                mk "imiss" cells.(3) b.per_exec.imiss ~once:b.imiss_once
                  ~tail:tail.t_imiss;
                mk "stalls" cells.(4) b.per_exec.stalls ~once:0 ~tail:tail.t_stalls;
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

let certify ~config ~injected ~vacuous_slack (session : Driver.session) =
  let t =
    Predict.create ~config ~original:session.original
      ~instrumented:session.instrumented ()
  in
  let pinfos = Hashtbl.create 16 in
  Array.iter
    (fun (ip : Proc.t) ->
      Hashtbl.add pinfos ip.name (pinfo t ip))
    session.instrumented.procs;
  let o =
    {
      anomalies = [];
      acts = Array.init 64 (fun _ -> fresh_activation ());
      depth = 0;
      blocks = Array.make 256 0;
      top = 0;
      totals =
        Counters.raw_totals (Machine.counters (Interp.machine session.vm));
      lc = 0;
      ld = 0;
      li = 0;
      ls = 0;
      pinfos;
    }
  in
  Interp.set_block_probe session.vm (stage o);
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
    mode = session.manifest.mode;
    engine = Engine.kind session.engine;
    injected;
    rows;
    windows = List.fold_left (fun n (r : row) -> n + r.freq) 0 rows;
    anomalies = List.rev o.anomalies;
    trapped;
    confirmed = count Confirmed;
    refuted = count Refuted;
    vacuous = count Vacuous;
    mean_slack;
  }

let run ?inject ?engine ?budget ?(vacuous_slack = 8.0) ~mode prog =
  let config = Config.default in
  let exec_config =
    match inject with None -> config | Some inj -> apply_inject inj config
  in
  let session =
    Driver.prepare ~config:exec_config ?max_instructions:budget ?engine ~mode
      prog
  in
  certify ~config ~injected:(Option.map inject_name inject) ~vacuous_slack
    session

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

let to_json outcomes =
  let open Pp_telemetry.Json in
  let opt f = Option.fold ~none:Null ~some:f in
  let verdict v = String (verdict_name v) in
  let stat s =
    Object
      [ ("metric", String s.metric); ("measured", Int s.measured);
        ("lo", Int s.lo); ("hi", opt (fun h -> Int h) s.hi);
        ("verdict", verdict s.mverdict) ]
  in
  let row r =
    Object
      [ ("proc", String r.proc); ("sum", Int r.sum); ("freq", Int r.freq);
        ("path", String r.path_desc); ("verdict", verdict r.rverdict);
        ("metrics", List (List.map stat r.stats)) ]
  in
  let outcome o =
    Object
      [ ("mode", String (Instrument.mode_name o.mode));
        ("engine", String (Engine.kind_name o.engine));
        ("inject", opt (fun i -> String i) o.injected);
        ("trapped", Bool o.trapped); ("windows", Int o.windows);
        ("confirmed", Int o.confirmed); ("vacuous", Int o.vacuous);
        ("refuted", Int o.refuted); ("mean_slack", Fixed (4, o.mean_slack));
        ("anomalies", List (List.map (fun a -> String a) o.anomalies));
        ("rows", List (List.map row o.rows)) ]
  in
  to_string (Object [ ("outcomes", List (List.map outcome outcomes)) ])
