(** The control-flow-graph view of a procedure, with synthetic ENTRY and
    EXIT vertices as the Ball–Larus algorithm requires.

    The vertex for block label [l] is [l] itself; ENTRY is [num_blocks] and
    EXIT is [num_blocks + 1].  Out-edges are created in a deterministic
    order (ENTRY edge; then blocks in label order, a conditional's true arm
    before its false arm), which fixes the successor ordering the labelling
    pass depends on. *)

type edge_role =
  | Entry  (** ENTRY -> entry block *)
  | Jump  (** unconditional terminator *)
  | Branch_true
  | Branch_false
  | Return  (** return block -> EXIT *)

type t = private {
  proc : Proc.t;
  graph : Pp_graph.Digraph.t;
  entry : Pp_graph.Digraph.vertex;
  exit : Pp_graph.Digraph.vertex;
  roles : edge_role array;  (** indexed by edge id *)
}

val of_proc : Proc.t -> t

(** [label_of_vertex t v] is [Some l] for a block vertex, [None] for
    ENTRY/EXIT. *)
val label_of_vertex : t -> Pp_graph.Digraph.vertex -> Block.label option

val vertex_of_label : t -> Block.label -> Pp_graph.Digraph.vertex
val role : t -> Pp_graph.Digraph.edge -> edge_role

(** Human-readable vertex name: ["ENTRY"], ["EXIT"] or ["L<n>"]. *)
val vertex_name : t -> Pp_graph.Digraph.vertex -> string
