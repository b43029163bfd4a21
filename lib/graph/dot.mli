(** Graphviz (dot) rendering of digraphs, for documentation and debugging. *)

(** Convenience wrapper returning the dot source as a string. *)
val to_string :
  Digraph.t ->
  name:string ->
  vertex_label:(Digraph.vertex -> string) ->
  edge_label:(Digraph.edge -> string) ->
  string
