(* Static execution-frequency estimation, after Wu & Larus (MICRO'94) and
   the Ball–Larus branch heuristics, simplified to the two signals that
   matter for probe-cost prediction in this codebase:

   - loop-branch heuristic: a natural backedge is taken ~7x as often as a
     loop exit (weight x7);
   - guard heuristic: a branch arm whose target post-dominates the branch
     is the "normal" continuation (weight x3);
   - feasibility: an edge {!Constprop} proved never-executable gets
     probability zero outright.

   Edge weights normalize into branch probabilities; block frequencies
   propagate acyclically in reverse postorder (backedges dropped, their
   probability mass renormalized away) starting from ENTRY = 1.0, then
   scale by 8^depth per {!Pp_graph.Loops} nesting level — the nesting and
   8x-per-level convention {!Pp_core.Static_weights} reads for placement
   weights, so the two estimators agree on what "hot" means. *)

module Cfg = Pp_ir.Cfg
module Digraph = Pp_graph.Digraph
module Dfs = Pp_graph.Dfs
module Dominators = Pp_graph.Dominators
module Loops = Pp_graph.Loops

type t = {
  cfg : Cfg.t;
  prob : float array;  (* per edge id: branch probability out of src *)
  vfreq : float array;  (* per vertex: estimated executions per invocation *)
}

let backedge_factor = 7.0
let postdom_factor = 3.0
let loop_scale = 8.0
let max_depth = 7

let estimate ?cp (cfg : Cfg.t) =
  let g = cfg.Cfg.graph in
  let n = Digraph.num_vertices g in
  let dfs = Dfs.run g ~root:cfg.Cfg.entry in
  let is_backedge = Array.make (Digraph.num_edges g) false in
  List.iter
    (fun (e : Digraph.edge) -> is_backedge.(e.id) <- true)
    (Dfs.back_edges dfs);
  let loops = Loops.analyze g ~root:cfg.Cfg.entry in
  let pdom = Dominators.compute_post g ~exit:cfg.Cfg.exit in
  let executable (e : Digraph.edge) =
    match cp with
    | None -> true
    | Some cp -> Constprop.edge_executable cp e
  in
  (* Raw heuristic weight of an out-edge. *)
  let weight (e : Digraph.edge) =
    if not (executable e) then 0.0
    else begin
      let w = ref 1.0 in
      if is_backedge.(e.id) then w := !w *. backedge_factor
      else if Dominators.dominates pdom e.dst e.src then
        w := !w *. postdom_factor;
      !w
    end
  in
  (* Normalize into probabilities per source vertex. *)
  let prob = Array.make (Digraph.num_edges g) 0.0 in
  Digraph.iter_vertices
    (fun v ->
      let outs = Digraph.out_edges g v in
      let total = List.fold_left (fun acc e -> acc +. weight e) 0.0 outs in
      List.iter
        (fun (e : Digraph.edge) ->
          prob.(e.id) <- (if total > 0.0 then weight e /. total else 0.0))
        outs)
    g;
  (* Acyclic propagation: reverse postorder is a topological order of the
     graph minus its DFS backedges.  Backedge mass is renormalized away so
     that each iteration level carries full weight; looping is reintroduced
     below via the 8^depth scale. *)
  let lfreq = Array.make n 0.0 in
  lfreq.(cfg.Cfg.entry) <- 1.0;
  List.iter
    (fun v ->
      if v <> cfg.Cfg.entry then begin
        let ins =
          List.filter
            (fun (e : Digraph.edge) -> not is_backedge.(e.id))
            (Digraph.in_edges g v)
        in
        let acc = ref 0.0 in
        List.iter
          (fun (e : Digraph.edge) ->
            let outs = Digraph.out_edges g e.src in
            let acyclic_total =
              List.fold_left
                (fun t (o : Digraph.edge) ->
                  if is_backedge.(o.id) then t else t +. (prob.(o.id)))
                0.0 outs
            in
            let p =
              if acyclic_total > 0.0 then prob.(e.id) /. acyclic_total
              else 0.0
            in
            acc := !acc +. (lfreq.(e.src) *. p))
          ins;
        lfreq.(v) <- !acc
      end)
    (Dfs.reverse_postorder dfs);
  let vfreq =
    Array.init n (fun v ->
        let d = min (Loops.depth loops v) max_depth in
        lfreq.(v) *. (loop_scale ** float_of_int d))
  in
  { cfg; prob; vfreq }

let block_freq t l = t.vfreq.(Cfg.vertex_of_label t.cfg l)
let edge_freq t (e : Digraph.edge) = t.vfreq.(e.src) *. t.prob.(e.id)
