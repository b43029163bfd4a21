(* Natural-loop discovery over the dominator tree.

   A natural backedge v -> w (w dominates v) defines the loop with header w
   whose body is w plus every vertex that reaches v backwards without
   passing through w.  Backedges sharing a header are merged into a single
   loop, as is conventional (Muchnick §7.4). *)

type loop = {
  header : Digraph.vertex;
  backedges : Digraph.edge list;
  body : Digraph.vertex list;  (* ascending; includes [header] *)
  parent : int option;  (* index of the innermost strictly-enclosing loop *)
  depth : int;  (* 1 = outermost *)
}

type t = {
  loops : loop array;
  member : bool array array;  (* member.(l).(v) *)
  vdepth : int array;
}

let body_of g ~header backedges n =
  let inb = Array.make n false in
  inb.(header) <- true;
  let stack = ref [] in
  List.iter
    (fun (e : Digraph.edge) ->
      if not inb.(e.src) then begin
        inb.(e.src) <- true;
        stack := e.src :: !stack
      end)
    backedges;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        List.iter
          (fun p ->
            if not inb.(p) then begin
              inb.(p) <- true;
              stack := p :: !stack
            end)
          (Digraph.preds g v)
  done;
  inb

let analyze g ~root =
  let n = Digraph.num_vertices g in
  let dfs = Dfs.run g ~root in
  let dom = Dominators.compute g ~root in
  let backedges = Dominators.natural_backedges dom dfs in
  (* Group backedges by header, preserving first-seen (edge id) order. *)
  let headers = ref [] in
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (e : Digraph.edge) ->
      if not (Hashtbl.mem by_header e.dst) then begin
        Hashtbl.add by_header e.dst [];
        headers := e.dst :: !headers
      end;
      Hashtbl.replace by_header e.dst (e :: Hashtbl.find by_header e.dst))
    backedges;
  let headers = List.rev !headers in
  let member =
    Array.of_list
      (List.map
         (fun h -> body_of g ~header:h (Hashtbl.find by_header h) n)
         headers)
  in
  let nl = List.length headers in
  let body_size = Array.map (fun inb ->
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inb)
      member
  in
  let contains i j =
    (* loop i strictly contains loop j *)
    i <> j
    && body_size.(i) >= body_size.(j)
    && (let ok = ref true in
        Array.iteri (fun v inj -> if inj && not member.(i).(v) then ok := false)
          member.(j);
        !ok)
  in
  let parent = Array.make nl (-1) in
  for j = 0 to nl - 1 do
    for i = 0 to nl - 1 do
      if contains i j
         && (parent.(j) < 0 || body_size.(i) < body_size.(parent.(j)))
      then parent.(j) <- i
    done
  done;
  let depth = Array.make nl 0 in
  let rec depth_of j =
    if depth.(j) > 0 then depth.(j)
    else begin
      let d = if parent.(j) < 0 then 1 else 1 + depth_of parent.(j) in
      depth.(j) <- d;
      d
    end
  in
  for j = 0 to nl - 1 do
    ignore (depth_of j)
  done;
  let vdepth = Array.make n 0 in
  for v = 0 to n - 1 do
    for l = 0 to nl - 1 do
      if member.(l).(v) then vdepth.(v) <- vdepth.(v) + 1
    done
  done;
  let loops =
    Array.of_list
      (List.mapi
         (fun l h ->
           let body = ref [] in
           for v = n - 1 downto 0 do
             if member.(l).(v) then body := v :: !body
           done;
           {
             header = h;
             backedges = List.rev (Hashtbl.find by_header h);
             body = !body;
             parent = (if parent.(l) < 0 then None else Some parent.(l));
             depth = depth.(l);
           })
         headers)
  in
  { loops; member; vdepth }

let loops t = t.loops
let depth t v = t.vdepth.(v)

let in_loop t l v = t.member.(l).(v)

let is_header t v =
  Array.exists (fun (l : loop) -> l.header = v) t.loops
