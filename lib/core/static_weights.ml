module Digraph = Pp_graph.Digraph
module Loops = Pp_graph.Loops
module Cfg = Pp_ir.Cfg

let edge_weight (cfg : Cfg.t) =
  let loops = Loops.analyze cfg.Cfg.graph ~root:cfg.Cfg.entry in
  fun (e : Digraph.edge) ->
    let d = min (Loops.depth loops e.src) (Loops.depth loops e.dst) in
    let rec pow acc k = if k <= 0 then acc else pow (acc * 8) (k - 1) in
    min (pow 1 (min d 7)) 1_000_000
