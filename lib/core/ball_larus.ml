module Digraph = Pp_graph.Digraph
module Dfs = Pp_graph.Dfs
module Topo = Pp_graph.Topo
module Spanning_tree = Pp_graph.Spanning_tree
module Cfg = Pp_ir.Cfg

exception Unsupported of string

(* What a DAG edge stands for in the original CFG. *)
type dag_edge_kind =
  | Real of Digraph.edge  (* the original (non-backedge) edge *)
  | Pseudo_start of Digraph.edge  (* ENTRY -> w for backedge v -> w *)
  | Pseudo_end of Digraph.edge  (* v -> EXIT for backedge v -> w *)

type t = {
  cfg : Cfg.t;
  dag : Digraph.t;
  np : int array;  (* per DAG vertex *)
  vals : int array;  (* per DAG edge id *)
  kinds : dag_edge_kind array;  (* per DAG edge id *)
  dag_edge_of_cfg : int array;  (* cfg edge id -> dag edge id, -1 = backedge *)
  pseudo_start_of : int array;  (* cfg backedge id -> dag edge id, else -1 *)
  pseudo_end_of : int array;
  backedges : Digraph.edge list;
  is_backedge : bool array;  (* per cfg edge id *)
  (* Step tables, per DAG vertex (a block's vertex is its label): the
     targets of the vertex's real out-edges in out-edge order with their
     Val, the Val of the first real ENTRY -> v and v -> EXIT edge (-1 =
     none), and the backedges leaving v in edge-id order. *)
  step_dst : int array array;
  step_val : int array array;
  entry_val : int array;
  exit_val : int array;
  back_from : Digraph.edge array array;
}

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* NP values can explode combinatorially; detect 63-bit overflow. *)
let checked_add name a b =
  let s = a + b in
  if s < 0 then unsupported "%s: path count overflow" name;
  s

let build (cfg : Cfg.t) =
  let g = cfg.graph in
  let name = cfg.proc.Pp_ir.Proc.name in
  let dfs = Dfs.run g ~root:cfg.entry in
  Digraph.iter_vertices
    (fun v ->
      if not (Dfs.reachable dfs v) then
        unsupported "%s: vertex %s unreachable from ENTRY" name
          (Cfg.vertex_name cfg v))
    g;
  let backedges = Dfs.back_edges dfs in
  let is_backedge = Array.make (Digraph.num_edges g) false in
  List.iter (fun (e : Digraph.edge) -> is_backedge.(e.id) <- true) backedges;
  (* Build the transformed acyclic graph over the same vertex set. *)
  let dag = Digraph.create () in
  ignore (Digraph.add_vertices dag (Digraph.num_vertices g));
  let kinds = ref [] in
  let dag_edge_of_cfg = Array.make (Digraph.num_edges g) (-1) in
  let pseudo_start_of = Array.make (Digraph.num_edges g) (-1) in
  let pseudo_end_of = Array.make (Digraph.num_edges g) (-1) in
  Digraph.iter_edges
    (fun e ->
      if not is_backedge.(e.id) then begin
        let de = Digraph.add_edge dag e.src e.dst in
        dag_edge_of_cfg.(e.id) <- de.id;
        kinds := Real e :: !kinds
      end)
    g;
  List.iter
    (fun (b : Digraph.edge) ->
      let ps = Digraph.add_edge dag cfg.entry b.dst in
      pseudo_start_of.(b.id) <- ps.id;
      kinds := Pseudo_start b :: !kinds;
      let pe = Digraph.add_edge dag b.src cfg.exit in
      pseudo_end_of.(b.id) <- pe.id;
      kinds := Pseudo_end b :: !kinds)
    backedges;
  let kinds = Array.of_list (List.rev !kinds) in
  (* First pass: NP by reverse topological order (successors first). *)
  let order =
    match Topo.reverse_sort dag with
    | order -> order
    | exception Topo.Cycle v ->
        unsupported
          "%s: transformed graph still cyclic at %s (irreducible loop not \
           broken by DFS backedges?)"
          name (Cfg.vertex_name cfg v)
  in
  let np = Array.make (Digraph.num_vertices dag) 0 in
  np.(cfg.exit) <- 1;
  List.iter
    (fun v ->
      if v <> cfg.exit then
        np.(v) <-
          List.fold_left
            (fun acc (e : Digraph.edge) ->
              checked_add name acc np.(e.dst))
            0
            (Digraph.out_edges dag v))
    order;
  if np.(cfg.entry) = 0 then
    unsupported "%s: ENTRY cannot reach EXIT" name;
  Digraph.iter_vertices
    (fun v ->
      if np.(v) = 0 then
        unsupported "%s: vertex %s cannot reach EXIT" name
          (Cfg.vertex_name cfg v))
    dag;
  (* Second pass: Val(e_i) = sum of NP over earlier successors. *)
  let vals = Array.make (Digraph.num_edges dag) 0 in
  Digraph.iter_vertices
    (fun v ->
      let acc = ref 0 in
      List.iter
        (fun (e : Digraph.edge) ->
          vals.(e.id) <- !acc;
          acc := !acc + np.(e.dst))
        (Digraph.out_edges dag v))
    dag;
  let nv = Digraph.num_vertices dag in
  let real_out v =
    List.filter
      (fun (e : Digraph.edge) ->
        match kinds.(e.id) with Real _ -> true | _ -> false)
      (Digraph.out_edges dag v)
    |> Array.of_list
  in
  let step_edges = Array.init nv real_out in
  let step_dst =
    Array.map (Array.map (fun (e : Digraph.edge) -> e.dst)) step_edges
  in
  let step_val =
    Array.map (Array.map (fun (e : Digraph.edge) -> vals.(e.id))) step_edges
  in
  let first_val src dst =
    let rec find i =
      if i >= Array.length step_dst.(src) then -1
      else if step_dst.(src).(i) = dst then step_val.(src).(i)
      else find (i + 1)
    in
    find 0
  in
  let back_from =
    Array.init nv (fun v ->
        Array.of_list
          (List.filter (fun (e : Digraph.edge) -> e.src = v) backedges))
  in
  {
    cfg;
    dag;
    np;
    vals;
    kinds;
    dag_edge_of_cfg;
    pseudo_start_of;
    pseudo_end_of;
    backedges;
    is_backedge;
    step_dst;
    step_val;
    entry_val = Array.init nv (fun v -> first_val cfg.entry v);
    exit_val = Array.init nv (fun v -> first_val v cfg.exit);
    back_from;
  }

let cfg t = t.cfg
let num_paths t = t.np.(t.cfg.entry)
let np t v = t.np.(v)
let backedges t = t.backedges

let is_backedge t (e : Digraph.edge) =
  e.id < Array.length t.is_backedge && t.is_backedge.(e.id)

let in_dag t v = v >= 0 && v < Array.length t.back_from

let backedge_between t ~src ~dst =
  if not (in_dag t src) then None
  else
    let from = t.back_from.(src) in
    let rec find i =
      if i >= Array.length from then None
      else if from.(i).Digraph.dst = dst then Some from.(i)
      else find (i + 1)
    in
    find 0

let edge_val t (e : Digraph.edge) =
  if e.id >= Array.length t.is_backedge || t.dag_edge_of_cfg.(e.id) < 0 then
    invalid_arg "Ball_larus.edge_val: backedge or foreign edge";
  t.vals.(t.dag_edge_of_cfg.(e.id))

let backedge_pseudo_vals t (e : Digraph.edge) =
  if e.id >= Array.length t.is_backedge || not t.is_backedge.(e.id) then
    invalid_arg "Ball_larus.backedge_pseudo_vals: not a backedge";
  (t.vals.(t.pseudo_start_of.(e.id)), t.vals.(t.pseudo_end_of.(e.id)))

(* {2 Paths} *)

type source = From_entry | After_backedge of Digraph.edge
type sink = To_exit | Into_backedge of Digraph.edge

type path = {
  source : source;
  blocks : Pp_ir.Block.label list;
  sink : sink;
}

(* The DAG edge sequence of a path sum, ENTRY to EXIT. *)
let walk_edges t sum =
  if sum < 0 || sum >= num_paths t then
    invalid_arg
      (Printf.sprintf "Ball_larus.decode: sum %d not in [0, %d)" sum
         (num_paths t));
  let rec walk v rem acc_edges =
    if v = t.cfg.exit then begin
      assert (rem = 0);
      List.rev acc_edges
    end
    else begin
      (* Successor intervals [Val(e), Val(e) + NP(dst)) partition
         [0, NP(v)); find the containing one. *)
      let chosen =
        List.find_opt
          (fun (e : Digraph.edge) ->
            t.vals.(e.id) <= rem && rem < t.vals.(e.id) + t.np.(e.dst))
          (Digraph.out_edges t.dag v)
      in
      match chosen with
      | None -> assert false
      | Some e -> walk e.dst (rem - t.vals.(e.id)) (e :: acc_edges)
    end
  in
  walk t.cfg.entry sum []

let path_of_edges t edges =
  let source =
    match edges with
    | first :: _ -> (
        match t.kinds.(first.Digraph.id) with
        | Pseudo_start b -> After_backedge b
        | Real _ -> From_entry
        | Pseudo_end _ -> assert false)
    | [] -> assert false
  in
  let sink =
    match List.rev edges with
    | last :: _ -> (
        match t.kinds.(last.Digraph.id) with
        | Pseudo_end b -> Into_backedge b
        | Real _ -> To_exit
        | Pseudo_start _ -> assert false)
    | [] -> assert false
  in
  let blocks =
    List.filter_map
      (fun (e : Digraph.edge) -> Cfg.label_of_vertex t.cfg e.dst)
      edges
  in
  { source; blocks; sink }

let decode t sum = path_of_edges t (walk_edges t sum)

(* {2 Traversals} *)

type traversal = {
  sum : int;
  path : path;
  real_edges : Digraph.edge list;
}

let traverse t sum =
  let edges = walk_edges t sum in
  let real_edges =
    List.filter_map
      (fun (e : Digraph.edge) ->
        match t.kinds.(e.id) with
        | Real cfg_e -> Some cfg_e
        | Pseudo_start _ | Pseudo_end _ -> None)
      edges
  in
  { sum; path = path_of_edges t edges; real_edges }

(* {2 Pruned numberings} *)

type pruned = {
  numbering : t;
  sums : int array;  (* feasible path sums, strictly ascending *)
}

let prune t ~feasible =
  let keep = ref [] in
  for sum = num_paths t - 1 downto 0 do
    if feasible sum then keep := sum :: !keep
  done;
  { numbering = t; sums = Array.of_list !keep }

let num_feasible p = Array.length p.sums

(* {2 Steps} *)

let step t ~src ~dst =
  if not (in_dag t src) then -1
  else
    let dsts = t.step_dst.(src) in
    let rec find i =
      if i >= Array.length dsts then -1
      else if dsts.(i) = dst then t.step_val.(src).(i)
      else find (i + 1)
    in
    find 0

let entry_step t source first =
  match source with
  | From_entry -> if in_dag t first then t.entry_val.(first) else -1
  | After_backedge b ->
      if is_backedge t b then
        let ps = Digraph.edge t.dag t.pseudo_start_of.(b.id) in
        if ps.dst = first then t.vals.(ps.id) else -1
      else -1

let exit_step t sink ~last =
  match sink with
  | To_exit -> if in_dag t last then t.exit_val.(last) else -1
  | Into_backedge b ->
      if is_backedge t b && b.src = last then t.vals.(t.pseudo_end_of.(b.id))
      else -1

let encode t path =
  let fail fmt =
    Format.kasprintf (fun s -> invalid_arg ("Ball_larus.encode: " ^ s)) fmt
  in
  (* Steps are checked in path order, so the first missing one is named. *)
  let rec interior acc = function
    | u :: (w :: _ as rest) ->
        let s = step t ~src:u ~dst:w in
        if s < 0 then fail "no CFG edge L%d -> L%d" u w;
        interior (acc + s) rest
    | [ last ] -> (
        let s = exit_step t path.sink ~last in
        if s >= 0 then acc + s
        else
          match path.sink with
          | To_exit -> fail "L%d does not return" last
          | Into_backedge b when b.src <> last ->
              fail "backedge source L%d does not end the path" b.src
          | Into_backedge b -> fail "L%d -> L%d is not a backedge" b.src b.dst)
    | [] -> fail "empty path"
  in
  match path.blocks with
  | [] -> fail "empty path"
  | first :: _ ->
      let s = entry_step t path.source first in
      if s < 0 then fail "no matching entry step to L%d" first;
      interior s path.blocks

let pp_path ppf path =
  let pp_blocks ppf blocks =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
      (fun ppf l -> Format.fprintf ppf "L%d" l)
      ppf blocks
  in
  (match path.source with
  | From_entry -> Format.pp_print_string ppf "ENTRY -> "
  | After_backedge b ->
      Format.fprintf ppf "(after backedge L%d -> L%d) " b.Digraph.src
        b.Digraph.dst);
  pp_blocks ppf path.blocks;
  match path.sink with
  | To_exit -> Format.pp_print_string ppf " -> EXIT"
  | Into_backedge b ->
      Format.fprintf ppf " (takes backedge L%d -> L%d)" b.Digraph.src
        b.Digraph.dst

(* {2 Instrumentation placement} *)

type backedge_op = {
  backedge : Digraph.edge;
  end_add : int;
  reset_to : int;
}

type placement = {
  init_needed : bool;
  increments : (Digraph.edge * int) list;
  backedge_ops : backedge_op list;
}

let simple_placement t =
  let increments =
    Digraph.fold_edges
      (fun e acc ->
        if t.is_backedge.(e.id) then acc
        else
          let v = t.vals.(t.dag_edge_of_cfg.(e.id)) in
          if v = 0 then acc else (e, v) :: acc)
      t.cfg.graph []
    |> List.rev
  in
  let backedge_ops =
    List.map
      (fun b ->
        let start_val, end_val = backedge_pseudo_vals t b in
        { backedge = b; end_add = end_val; reset_to = start_val })
      t.backedges
  in
  { init_needed = true; increments; backedge_ops }

let optimized_placement ?(weights = fun (_ : Digraph.edge) -> 1) t =
  (* Work on a copy of the DAG extended with a fictional EXIT -> ENTRY edge
     that is forced into the spanning tree (it cannot carry code). *)
  let helper = Digraph.copy t.dag in
  let fictional = Digraph.add_edge helper t.cfg.exit t.cfg.entry in
  let dag_val (e : Digraph.edge) =
    if e.id = fictional.id then 0 else t.vals.(e.id)
  in
  (* Pseudo edges execute as often as their backedge; real edges use the
     caller's estimate. *)
  let weight (e : Digraph.edge) =
    if e.id = fictional.id then max_int
    else
      match t.kinds.(e.id) with
      | Real cfg_e -> weights cfg_e
      | Pseudo_start b | Pseudo_end b -> weights b
  in
  let tree = Spanning_tree.maximum helper ~weight in
  assert (List.exists (fun (e : Digraph.edge) -> e.id = fictional.id) tree);
  (* Tree potentials: theta(ENTRY) = 0 and theta(dst) - theta(src) = Val(e)
     along every tree edge; then each chord's increment is
     Inc(c) = Val(c) + theta(src c) - theta(dst c), and the chord increments
     along any complete path sum to the path's Val sum. *)
  let n = Digraph.num_vertices helper in
  let theta = Array.make n 0 in
  let visited = Array.make n false in
  visited.(t.cfg.entry) <- true;
  let adj = Array.make n [] in
  List.iter
    (fun (e : Digraph.edge) ->
      adj.(e.src) <- (e, true) :: adj.(e.src);
      adj.(e.dst) <- (e, false) :: adj.(e.dst))
    tree;
  let queue = Queue.create () in
  Queue.add t.cfg.entry queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun ((e : Digraph.edge), forward) ->
        let w = if forward then e.dst else e.src in
        if not visited.(w) then begin
          visited.(w) <- true;
          theta.(w) <-
            (if forward then theta.(v) + dag_val e
             else theta.(v) - dag_val e);
          Queue.add w queue
        end)
      adj.(v)
  done;
  let in_tree = Array.make (Digraph.num_edges helper) false in
  List.iter (fun (e : Digraph.edge) -> in_tree.(e.id) <- true) tree;
  let inc (e : Digraph.edge) =
    if in_tree.(e.id) then 0 else dag_val e + theta.(e.src) - theta.(e.dst)
  in
  let increments = ref [] in
  Digraph.iter_edges
    (fun e ->
      if e.id <> fictional.id then
        match t.kinds.(e.id) with
        | Real cfg_e ->
            let v = inc e in
            if v <> 0 then increments := (cfg_e, v) :: !increments
        | Pseudo_start _ | Pseudo_end _ -> ())
    helper;
  let backedge_ops =
    List.map
      (fun (b : Digraph.edge) ->
        let ps = Digraph.edge helper t.pseudo_start_of.(b.id) in
        let pe = Digraph.edge helper t.pseudo_end_of.(b.id) in
        { backedge = b; end_add = inc pe; reset_to = inc ps })
      t.backedges
  in
  {
    init_needed = true;
    increments = List.rev !increments;
    backedge_ops;
  }
