(* Regeneration of the paper's figures as text. *)

module Digraph = Pp_graph.Digraph
module Cfg = Pp_ir.Cfg
module Proc = Pp_ir.Proc
module Ball_larus = Pp_core.Ball_larus
module Ex = Pp_core.Paper_examples
module Cct = Pp_core.Cct
module Dct = Pp_core.Dct
module Dcg = Pp_core.Dcg
module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Runtime = Pp_vm.Runtime

let heading title = Printf.printf "\n==== %s ====\n\n" title

let fig1_numbering () =
  let proc = Ex.figure1_proc () in
  let cfg = Cfg.of_proc proc in
  Ball_larus.build cfg

let edge_desc cfg (e : Digraph.edge) =
  let name v =
    match Cfg.label_of_vertex cfg v with
    | Some l -> Ex.figure1_block_name l
    | None -> Cfg.vertex_name cfg v
  in
  Printf.sprintf "%s->%s" (name e.src) (name e.dst)

let figure1 () =
  heading "Figure 1: edge labelling with unique path sums (the A..F CFG)";
  let bl = fig1_numbering () in
  let cfg = Ball_larus.cfg bl in
  Printf.printf "NP values (paths to EXIT):\n";
  List.iter
    (fun l ->
      Printf.printf "  NP(%s) = %d\n" (Ex.figure1_block_name l)
        (Ball_larus.np bl l))
    [ 0; 1; 2; 3; 4; 5 ];
  Printf.printf "\nEdge values Val(e):\n";
  Digraph.iter_edges
    (fun e ->
      match Cfg.role cfg e with
      | Cfg.Entry | Cfg.Return -> ()
      | Cfg.Jump | Cfg.Branch_true | Cfg.Branch_false ->
          Printf.printf "  Val(%s) = %d\n" (edge_desc cfg e)
            (Ball_larus.edge_val bl e))
    cfg.Cfg.graph;
  Printf.printf "\nThe %d paths and their sums (paper: ACDF=0 ACDEF=1 \
                 ABCDF=2 ABCDEF=3 ABDF=4 ABDEF=5):\n"
    (Ball_larus.num_paths bl);
  for sum = 0 to Ball_larus.num_paths bl - 1 do
    let p = Ball_larus.decode bl sum in
    Printf.printf "  %d: %s\n" sum
      (String.concat ""
         (List.map Ex.figure1_block_name p.Ball_larus.blocks))
  done;
  let show_placement title (pl : Ball_larus.placement) =
    Printf.printf "\n%s:\n" title;
    List.iter
      (fun (e, v) ->
        Printf.printf "  on %s: r += %d\n" (edge_desc cfg e) v)
      pl.Ball_larus.increments;
    Printf.printf "  at EXIT: count[r]++\n"
  in
  show_placement "Simple instrumentation (Figure 1(c))"
    (Ball_larus.simple_placement bl);
  show_placement "Optimized instrumentation (Figure 1(d), chords of a \
                  spanning tree)"
    (Ball_larus.optimized_placement
       ~weights:(fun (_ : Digraph.edge) -> 1)
       bl)

let figure2 () =
  heading
    "Figure 2: the labelling phase -- Val(e_i) = sum of NP(w_j) for j < i";
  let bl = fig1_numbering () in
  let cfg = Ball_larus.cfg bl in
  (* Block D (successors F then E) and block A (successors C then B) show
     the cumulative rule. *)
  List.iter
    (fun v ->
      let succs = Digraph.out_edges cfg.Cfg.graph v in
      Printf.printf "vertex %s: successors in order:\n"
        (Ex.figure1_block_name v);
      List.iter
        (fun (e : Digraph.edge) ->
          match Cfg.label_of_vertex cfg e.dst with
          | Some l ->
              Printf.printf "  -> %s   NP=%d   Val=%d\n"
                (Ex.figure1_block_name l) (Ball_larus.np bl l)
                (Ball_larus.edge_val bl e)
          | None -> ())
        succs)
    [ 0; 3 ]

let figure3 () =
  heading
    "Figure 3: instrumentation for measuring a metric over paths \
     (hw-cnt = 0 at path start, read+accumulate at path end)";
  let prog = Ex.figure1_program () in
  let instrumented, _ =
    Instrument.run ~mode:Instrument.Flow_hw prog
  in
  let fig1 = Pp_ir.Program.proc_exn instrumented "fig1" in
  Format.printf "%a@." Proc.pp fig1

let pp_cct_text cct =
  let rec visit indent node =
    Printf.printf "%s%s\n" (String.make indent ' ') (Cct.proc node);
    List.iter
      (fun (e : _ Cct.edge) ->
        if e.Cct.is_backedge then
          Printf.printf "%s  (backedge -> %s)\n"
            (String.make indent ' ')
            (Cct.proc e.Cct.target)
        else visit (indent + 2) e.Cct.target)
      (Cct.edges node)
  in
  List.iter (visit 0) (Cct.children (Cct.root cct))

let trace_structures trace =
  let dct = Dct.create () in
  let dcg = Dcg.create () in
  let cct = Cct.create ~make_data:(fun ~proc:_ ~nsites:_ -> ()) () in
  trace
    ~enter:(fun proc site ->
      Dct.enter dct ~proc;
      Dcg.enter dcg ~proc;
      ignore (Cct.enter cct ~proc ~nsites:4 ~site ~kind:Cct.Direct))
    ~exit:(fun () ->
      Dct.exit dct;
      Dcg.exit dcg;
      Cct.exit cct);
  (dct, dcg, cct)

let figure4 () =
  heading "Figure 4: dynamic call tree vs call graph vs CCT";
  let dct, dcg, cct = trace_structures Ex.figure4_trace in
  Printf.printf "(a) dynamic call tree (%d activations):\n"
    (Dct.num_nodes dct - 1);
  Format.printf "%a@." Dct.pp dct;
  Printf.printf "(b) dynamic call graph edges:\n";
  List.iter
    (fun (a, b, n) -> Printf.printf "  %s -> %s  (%d calls)\n" a b n)
    (Dcg.edges dcg);
  Printf.printf
    "    infeasible chain M->D->A->B->C edge-wise present: %b\n"
    (Dcg.path_exists dcg [ "M"; "D"; "A"; "B"; "C" ]);
  Printf.printf "(c) calling context tree (%d records):\n"
    (Cct.num_nodes cct - 1);
  pp_cct_text cct;
  Printf.printf
    "    contexts of C preserved: M.A.B.C=%b M.D.C=%b (two records)\n"
    (Cct.find_context cct [ "M"; "A"; "B"; "C" ] <> None)
    (Cct.find_context cct [ "M"; "D"; "C" ] <> None)

let figure5 () =
  heading "Figure 5: recursion introduces CCT backedges";
  let dct, _, cct = trace_structures Ex.figure5_trace in
  Printf.printf "(a) dynamic call tree:\n";
  Format.printf "%a@." Dct.pp dct;
  Printf.printf "(c) CCT (recursive A reuses its record via a backedge):\n";
  pp_cct_text cct;
  Printf.printf "    records: %d (bounded despite recursion)\n"
    (Cct.num_nodes cct - 1)

let figure7 () =
  heading
    "Figures 6/7: CCT call records in (simulated) memory -- ID, parent, \
     metrics, callee slots";
  (* Run the fig1 program under Context_hw and dump the heap layout. *)
  let prog = Ex.figure1_program () in
  let session = Driver.prepare ~mode:Instrument.Context_hw prog in
  ignore (Driver.run session);
  let cct = Driver.cct session in
  Cct.iter
    (fun node ->
      let d = Cct.data node in
      Printf.printf "record @0x%x: ID=%-6s parent=%s entries=%d\n"
        d.Runtime.addr (Cct.proc node)
        (match Cct.parent node with
        | Some p -> Printf.sprintf "0x%x" (Cct.data p).Runtime.addr
        | None -> "NULL")
        d.Runtime.metrics.(0);
      List.iter
        (fun (e : _ Cct.edge) ->
          Printf.printf "  slot[%d] -> 0x%x (%s%s, %d calls)\n" e.Cct.site
            (Cct.data e.Cct.target).Runtime.addr
            (Cct.proc e.Cct.target)
            (if e.Cct.is_backedge then ", backedge" else "")
            e.Cct.calls)
        (Cct.edges node))
    cct
