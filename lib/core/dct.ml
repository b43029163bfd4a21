type node = { node_proc : string; mutable rev_children : node list }

type t = {
  root_node : node;
  mutable stack : node list;
  mutable n_nodes : int;
}

(* The node budget that keeps the unbounded tree honest. *)
let max_nodes = 1_000_000

let create () =
  let root_node = { node_proc = "<root>"; rev_children = [] } in
  { root_node; stack = [ root_node ]; n_nodes = 1 }

let current t =
  match t.stack with n :: _ -> n | [] -> assert false

let enter t ~proc =
  if t.n_nodes >= max_nodes then
    invalid_arg "Dct.enter: node budget exhausted";
  let parent = current t in
  let node = { node_proc = proc; rev_children = [] } in
  parent.rev_children <- node :: parent.rev_children;
  t.n_nodes <- t.n_nodes + 1;
  t.stack <- node :: t.stack

let exit t =
  match t.stack with
  | [ _ ] | [] -> invalid_arg "Dct.exit: only the root is active"
  | _ :: rest -> t.stack <- rest

let children n = List.rev n.rev_children
let num_nodes t = t.n_nodes

let contexts t =
  let table = Hashtbl.create 64 in
  let rec visit chain node =
    let chain = node.node_proc :: chain in
    let key = List.rev chain in
    Hashtbl.replace table key
      (1 + Option.value ~default:0 (Hashtbl.find_opt table key));
    List.iter (visit chain) (children node)
  in
  List.iter (visit []) (children t.root_node);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort compare

let pp ppf t =
  let rec visit indent node =
    Format.fprintf ppf "%s%s@," (String.make indent ' ') node.node_proc;
    List.iter (visit (indent + 2)) (children node)
  in
  Format.fprintf ppf "@[<v>";
  List.iter (visit 0) (children t.root_node);
  Format.fprintf ppf "@]"
