module Digraph = Pp_graph.Digraph

type edge_role = Entry | Jump | Branch_true | Branch_false | Return

type t = {
  proc : Proc.t;
  graph : Digraph.t;
  entry : Digraph.vertex;
  exit : Digraph.vertex;
  roles : edge_role array;
}

let of_proc (proc : Proc.t) =
  let n = Proc.num_blocks proc in
  let g = Digraph.create () in
  for _ = 0 to n + 1 do
    ignore (Digraph.add_vertex g)
  done;
  let entry = n and exit = n + 1 in
  let roles = ref [] in
  let add src dst role =
    let _e = Digraph.add_edge g src dst in
    roles := role :: !roles
  in
  add entry proc.entry Entry;
  Array.iter
    (fun (b : Block.t) ->
      match b.term with
      | Block.Jmp l -> add b.label l Jump
      | Block.Br (_, t, f) ->
          add b.label t Branch_true;
          add b.label f Branch_false
      | Block.Ret _ -> add b.label exit Return)
    proc.blocks;
  let roles = Array.of_list (List.rev !roles) in
  { proc; graph = g; entry; exit; roles }

let label_of_vertex t v =
  if v = t.entry || v = t.exit then None else Some v

let vertex_of_label t l =
  if l < 0 || l >= Proc.num_blocks t.proc then
    invalid_arg "Cfg.vertex_of_label";
  l

let role t (e : Digraph.edge) =
  if e.id >= Array.length t.roles then
    (* Edges added after [of_proc] (the path profiler's pseudo edges) live in
       a transformed copy, never in the original CFG. *)
    invalid_arg "Cfg.role: edge not part of the original CFG";
  t.roles.(e.id)

let vertex_name t v =
  if v = t.entry then "ENTRY"
  else if v = t.exit then "EXIT"
  else Printf.sprintf "L%d" v
