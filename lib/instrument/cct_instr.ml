module I = Pp_ir.Instr
module Dfs = Pp_graph.Dfs

let emit ed ~metrics ~backedge_reads =
  let proc = Editor.original ed in
  let nsites = proc.Pp_ir.Proc.nsites in
  Editor.at_entry ed Editor.Cct_probe
    [ I.Prof (I.Cct_enter { proc_addr = 0; nsites }) ];
  if metrics then
    Editor.at_entry ed Editor.Counter_read [ I.Prof I.Cct_metric_enter ];
  Editor.around_calls ed Editor.Cct_probe (fun ~site ~indirect ->
      ([ I.Prof (I.Cct_call { site; indirect }) ], []));
  if metrics then
    Editor.before_returns ed Editor.Counter_read [ I.Prof I.Cct_metric_exit ];
  Editor.before_returns ed Editor.Cct_probe [ I.Prof I.Cct_exit ];
  if metrics && backedge_reads then begin
    let cfg = Editor.cfg ed in
    let dfs = Dfs.run cfg.Pp_ir.Cfg.graph ~root:cfg.Pp_ir.Cfg.entry in
    List.iter
      (fun e ->
        Editor.on_edge ed Editor.Counter_read e
          [ I.Prof I.Cct_metric_backedge ])
      (Dfs.back_edges dfs)
  end
