(* Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm":
   iterate intersecting predecessor dominators in reverse postorder. *)

type t = {
  root : Digraph.vertex;
  idom : int array;  (* -1 = unknown/unreachable; root maps to itself *)
  rpo_index : int array;  (* reverse-postorder rank, -1 if unreachable *)
}

let compute g ~root =
  let n = Digraph.num_vertices g in
  let dfs = Dfs.run g ~root in
  let order = Dfs.reverse_postorder dfs in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i v -> rpo_index.(v) <- i) order;
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v <> root then begin
          let preds =
            List.filter
              (fun p -> rpo_index.(p) >= 0 && idom.(p) >= 0)
              (Digraph.preds g v)
          in
          match preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(v) <> new_idom then begin
                idom.(v) <- new_idom;
                changed := true
              end
        end)
      order
  done;
  { root; idom; rpo_index }

let compute_post g ~exit = compute (Digraph.reverse g) ~root:exit

let reachable t v = t.rpo_index.(v) >= 0

let dominates t d v =
  if not (reachable t d && reachable t v) then false
  else begin
    let rec climb v = if v = d then true else v <> t.root && climb t.idom.(v) in
    climb v
  end

let natural_backedges t dfs =
  List.filter
    (fun (e : Digraph.edge) -> dominates t e.dst e.src)
    (Dfs.back_edges dfs)
