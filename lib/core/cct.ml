type call_kind = Direct | Indirect

type 'a node = {
  node_proc : string;
  node_nsites : int;
  node_parent : 'a node option;
  node_depth : int;
  node_id : int;
  node_data : 'a;
  slots : 'a edge list array;
      (* per call site, most recently used first (the paper's move-to-front
         on indirect-call lists) *)
}

and 'a edge = {
  site : int;
  target : 'a node;
  is_backedge : bool;
  kind : call_kind;
  mutable calls : int;
}

type 'a t = {
  merge_call_sites : bool;
  make_data : proc:string -> nsites:int -> 'a;
  root_node : 'a node;
  mutable stack : 'a node array;
      (* activation stack, [stack.(0 .. top)] live, [stack.(top)] current:
         an array, so an enter allocates nothing *)
  mutable top : int;
  mutable nodes_rev : 'a node list;  (* allocation order, reversed *)
  mutable n_nodes : int;
}

let root_name = "<root>"

let create ?(merge_call_sites = false) ~make_data () =
  let root_node =
    {
      node_proc = root_name;
      node_nsites = 1;
      node_parent = None;
      node_depth = 0;
      node_id = 0;
      node_data = make_data ~proc:root_name ~nsites:1;
      slots = Array.make 1 [];
    }
  in
  {
    merge_call_sites;
    make_data;
    root_node;
    stack = Array.make 16 root_node;
    top = 0;
    nodes_rev = [ root_node ];
    n_nodes = 1;
  }

let root t = t.root_node

let current t =
  Array.unsafe_get t.stack t.top

let depth t = t.top

let slot_index t (cr : 'a node) site =
  let idx = if t.merge_call_sites then 0 else site in
  if idx < 0 || idx >= Array.length cr.slots then
    invalid_arg
      (Printf.sprintf "Cct.enter: call site %d out of range for %s" site
         cr.node_proc);
  idx

let rec find_ancestor (node : 'a node option) proc =
  match node with
  | None -> None
  | Some n -> if n.node_proc = proc then node else find_ancestor n.node_parent proc

let enter t ~proc ~nsites ~site ~kind =
  let cr = current t in
  let idx = slot_index t cr site in
  let slot = cr.slots.(idx) in
  let edge =
    match slot with
    | e :: _ when e.target.node_proc = proc -> e
    | _ -> (
        match List.find_opt (fun e -> e.target.node_proc = proc) slot with
        | Some e ->
            (* Move to the front of the slot list, as the paper's
               construction does for indirect-call lists; an edge already
               at the front stays where it is. *)
            cr.slots.(idx) <- e :: List.filter (fun e' -> e' != e) slot;
            e
        | None ->
            let target, is_backedge =
              match find_ancestor (Some cr) proc with
              | Some ancestor -> (ancestor, true)
              | None ->
                  let node =
                    {
                      node_proc = proc;
                      node_nsites = nsites;
                      node_parent = Some cr;
                      node_depth = cr.node_depth + 1;
                      node_id = t.n_nodes;
                      node_data = t.make_data ~proc ~nsites;
                      slots =
                        Array.make
                          (if t.merge_call_sites then 1 else max 1 nsites)
                          [];
                    }
                  in
                  t.nodes_rev <- node :: t.nodes_rev;
                  t.n_nodes <- t.n_nodes + 1;
                  (node, false)
            in
            let e = { site; target; is_backedge; kind; calls = 0 } in
            cr.slots.(idx) <- e :: cr.slots.(idx);
            e)
  in
  if edge.target.node_nsites <> nsites then
    invalid_arg
      (Printf.sprintf "Cct.enter: %s has %d sites, previously %d" proc nsites
         edge.target.node_nsites);
  edge.calls <- edge.calls + 1;
  let top = t.top + 1 in
  if top = Array.length t.stack then begin
    let grown = Array.make (2 * top) t.root_node in
    Array.blit t.stack 0 grown 0 top;
    t.stack <- grown
  end;
  Array.unsafe_set t.stack top edge.target;
  t.top <- top;
  edge.target

let rec targets proc = function
  | [] -> false
  | e :: rest -> e.target.node_proc = proc || targets proc rest

let has_edge t ~proc ~site =
  let cr = current t in
  targets proc cr.slots.(slot_index t cr site)

let exit t =
  if t.top = 0 then invalid_arg "Cct.exit: only the root is active";
  t.top <- t.top - 1

let unwind_to_depth t d =
  let cur = depth t in
  if d > cur || d < 0 then
    invalid_arg
      (Printf.sprintf "Cct.unwind_to_depth: %d not in [0, %d]" d cur);
  for _ = 1 to cur - d do
    exit t
  done

let proc n = n.node_proc
let data n = n.node_data
let parent n = n.node_parent
let node_depth n = n.node_depth
let nsites n = n.node_nsites
let id n = n.node_id

let edges n =
  (* Slots in order; within a slot, first-use order (the list is
     most-recently-used-first, so restore insertion order by reversing). *)
  Array.to_list n.slots
  |> List.concat_map (fun slot -> List.rev slot)

let children n =
  List.filter_map
    (fun e -> if e.is_backedge then None else Some e.target)
    (edges n)

let iter f t = List.iter f (List.rev t.nodes_rev)

let fold f init t =
  List.fold_left f init (List.rev t.nodes_rev)

let num_nodes t = t.n_nodes

let context n =
  match n.node_parent with
  | None -> []
  | Some _ ->
      let rec up acc = function
        | None -> acc
        | Some p ->
            if p.node_parent = None then acc
            else up (p.node_proc :: acc) p.node_parent
      in
      up [ n.node_proc ] n.node_parent

let find_context t ctx =
  let rec down node = function
    | [] -> Some node
    | proc :: rest -> (
        match
          List.find_opt
            (fun e -> (not e.is_backedge) && e.target.node_proc = proc)
            (edges node)
        with
        | Some e -> down e.target rest
        | None -> None)
  in
  down t.root_node ctx

let merged t = t.merge_call_sites

let graft_node t ~parent ~proc ~nsites ~data =
  let node =
    {
      node_proc = proc;
      node_nsites = nsites;
      node_parent = Some parent;
      node_depth = parent.node_depth + 1;
      node_id = t.n_nodes;
      node_data = data;
      slots =
        Array.make (if t.merge_call_sites then 1 else max 1 nsites) [];
    }
  in
  t.nodes_rev <- node :: t.nodes_rev;
  t.n_nodes <- t.n_nodes + 1;
  node

let graft_edge t ~from_ ~site ~target ~is_backedge ~kind ~calls =
  (* Cons, as live construction does: slot lists are most-recent-first and
     {!edges} reverses them, so grafting in first-use order round-trips.
     (Appending here would reverse multi-edge slots — indirect-call lists
     and merged-call-site slots — on every reload.) *)
  let idx = slot_index t from_ site in
  from_.slots.(idx) <- { site; target; is_backedge; kind; calls } :: from_.slots.(idx)

let merge ~merge_data ta tb =
  if ta.merge_call_sites <> tb.merge_call_sites then
    invalid_arg "Cct.merge: one tree merges call sites, the other does not";
  let root =
    {
      node_proc = root_name;
      node_nsites = 1;
      node_parent = None;
      node_depth = 0;
      node_id = 0;
      node_data =
        merge_data (Some ta.root_node.node_data) (Some tb.root_node.node_data);
      slots = Array.make 1 [];
    }
  in
  let t =
    {
      merge_call_sites = ta.merge_call_sites;
      make_data = ta.make_data;
      root_node = root;
      stack = Array.make 16 root;
      top = 0;
      nodes_rev = [ root ];
      n_nodes = 1;
    }
  in
  (* Walk the two trees in lockstep.  Within each callee slot, edges are
     keyed by the callee's procedure (exactly the lookup {!enter} performs);
     the union lists [ta]'s edges in first-use order followed by edges only
     [tb] has, which reproduces a serial run's first-use order when the
     shards partition a serial event stream. *)
  let rec go (na : 'a node option) (nb : 'a node option) (rn : 'a node) =
    let slot_of n idx =
      match n with
      | Some n when idx < Array.length n.slots -> List.rev n.slots.(idx)
      | _ -> []
    in
    for idx = 0 to Array.length rn.slots - 1 do
      let ea = slot_of na idx and eb = slot_of nb idx in
      let find es proc =
        List.find_opt (fun e -> e.target.node_proc = proc) es
      in
      let union =
        List.map (fun e -> e.target.node_proc) ea
        @ List.filter_map
            (fun e ->
              let p = e.target.node_proc in
              if find ea p <> None then None else Some p)
            eb
      in
      List.iter
        (fun pname ->
          let fa = find ea pname and fb = find eb pname in
          let calls =
            (match fa with Some e -> e.calls | None -> 0)
            + (match fb with Some e -> e.calls | None -> 0)
          in
          let site, kind =
            match (fa, fb) with
            | Some e, _ -> (e.site, e.kind)
            | None, Some e -> (e.site, e.kind)
            | None, None -> assert false
          in
          (match (fa, fb) with
          | Some a, Some b when a.is_backedge <> b.is_backedge ->
              invalid_arg
                (Printf.sprintf
                   "Cct.merge: %s -> %s is a backedge in one tree and a \
                    tree edge in the other"
                   rn.node_proc pname)
          | _ -> ());
          let is_backedge =
            (match fa with Some e -> e.is_backedge | None -> false)
            || match fb with Some e -> e.is_backedge | None -> false
          in
          if is_backedge then begin
            (* The target is the (unique) ancestor running [pname]; it was
               already created, since ancestors precede descendants. *)
            match find_ancestor (Some rn) pname with
            | Some target ->
                rn.slots.(idx) <-
                  { site; target; is_backedge = true; kind; calls }
                  :: rn.slots.(idx)
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Cct.merge: backedge %s -> %s has no ancestor target"
                     rn.node_proc pname)
          end
          else begin
            let ca = Option.map (fun e -> e.target) fa
            and cb = Option.map (fun e -> e.target) fb in
            let nsites =
              match (ca, cb) with
              | Some a, Some b ->
                  if a.node_nsites <> b.node_nsites then
                    invalid_arg
                      (Printf.sprintf
                         "Cct.merge: %s has %d sites in one tree, %d in the \
                          other"
                         pname a.node_nsites b.node_nsites);
                  a.node_nsites
              | Some a, None -> a.node_nsites
              | None, Some b -> b.node_nsites
              | None, None -> assert false
            in
            let child =
              {
                node_proc = pname;
                node_nsites = nsites;
                node_parent = Some rn;
                node_depth = rn.node_depth + 1;
                node_id = t.n_nodes;
                node_data =
                  merge_data
                    (Option.map (fun n -> n.node_data) ca)
                    (Option.map (fun n -> n.node_data) cb);
                slots =
                  Array.make
                    (if t.merge_call_sites then 1 else max 1 nsites)
                    [];
              }
            in
            t.nodes_rev <- child :: t.nodes_rev;
            t.n_nodes <- t.n_nodes + 1;
            rn.slots.(idx) <-
              { site; target = child; is_backedge = false; kind; calls }
              :: rn.slots.(idx);
            go ca cb child
          end)
        union
    done
  in
  go (Some ta.root_node) (Some tb.root_node) root;
  t

let check_invariants t =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  iter
    (fun n ->
      (* Every procedure occurs at most once on the root-to-node path. *)
      let rec collect acc = function
        | None -> acc
        | Some p -> collect (p.node_proc :: acc) p.node_parent
      in
      let chain = collect [] (Some n) in
      let sorted = List.sort compare chain in
      let rec dup = function
        | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
        | [ _ ] | [] -> None
      in
      (match dup sorted with
      | Some p -> fail "procedure %s repeats on the path to %s" p n.node_proc
      | None -> ());
      List.iter
        (fun e ->
          if e.is_backedge then begin
            (* Target must be an ancestor of n (or n itself). *)
            let rec is_anc = function
              | None -> false
              | Some a -> a == e.target || is_anc a.node_parent
            in
            if not (is_anc (Some n)) then
              fail "backedge %s -> %s does not target an ancestor"
                n.node_proc e.target.node_proc
          end
          else if
            match e.target.node_parent with
            | Some p -> p != n
            | None -> true
          then
            fail "tree edge %s -> %s but parent differs" n.node_proc
              e.target.node_proc)
        (edges n))
    t
