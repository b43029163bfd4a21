module Digraph = Pp_graph.Digraph
module Cfg = Pp_ir.Cfg

type direction = Forward | Backward

let solve ~size ~start ~init ~step ~merge =
  let values = Array.make size None in
  let queued = Array.make size false in
  let queue = Queue.create () in
  let enqueue n =
    if not queued.(n) then begin
      queued.(n) <- true;
      Queue.add n queue
    end
  in
  let push (n, v) =
    match values.(n) with
    | None ->
        values.(n) <- Some v;
        enqueue n
    | Some old -> (
        match merge n old v with
        | None -> ()
        | Some v ->
            values.(n) <- Some v;
            enqueue n)
  in
  values.(start) <- Some init;
  enqueue start;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    queued.(n) <- false;
    List.iter push (step n (Option.get values.(n)))
  done;
  values

module Bitset = struct
  type t = { size : int; bits : Bytes.t }

  let nbytes size = (size + 7) / 8
  let create size = { size; bits = Bytes.make (nbytes size) '\000' }

  let full size =
    let t = { size; bits = Bytes.make (nbytes size) '\255' } in
    (* Clear the slack bits so equal sets are byte-equal. *)
    let slack = (8 - (size land 7)) land 7 in
    if slack > 0 && size > 0 then begin
      let last = nbytes size - 1 in
      Bytes.set t.bits last
        (Char.chr (Char.code (Bytes.get t.bits last) lsr slack))
    end;
    t

  let copy t = { t with bits = Bytes.copy t.bits }

  let check t i =
    if i < 0 || i >= t.size then invalid_arg "Bitset: index out of range"

  let add t i =
    check t i;
    Bytes.set t.bits (i lsr 3)
      (Char.chr (Char.code (Bytes.get t.bits (i lsr 3)) lor (1 lsl (i land 7))))

  let remove t i =
    check t i;
    Bytes.set t.bits (i lsr 3)
      (Char.chr
         (Char.code (Bytes.get t.bits (i lsr 3)) land lnot (1 lsl (i land 7))))

  let mem t i =
    check t i;
    Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let map2 f a b =
    if a.size <> b.size then invalid_arg "Bitset: size mismatch";
    let r = create a.size in
    for i = 0 to Bytes.length a.bits - 1 do
      Bytes.set r.bits i
        (Char.chr
           (f (Char.code (Bytes.get a.bits i)) (Char.code (Bytes.get b.bits i))
           land 0xff))
    done;
    r

  let union = map2 (fun x y -> x lor y)
  let diff = map2 (fun x y -> x land lnot y)
  let equal a b = a.size = b.size && Bytes.equal a.bits b.bits
end

module Gen_kill = struct
  type result = {
    cfg : Cfg.t;
    direction : direction;
    inputs : Bitset.t option array;  (* per vertex, on the init side *)
    outputs : Bitset.t option array;
  }

  let solve ~direction (cfg : Cfg.t) ~gen ~kill ~init =
    let g = cfg.Cfg.graph in
    let start, downstream =
      match direction with
      | Forward -> (cfg.Cfg.entry, Digraph.succs g)
      | Backward -> (cfg.Cfg.exit, Digraph.preds g)
    in
    let transfer v input =
      match Cfg.label_of_vertex cfg v with
      | None -> input  (* ENTRY/EXIT pass through *)
      | Some l -> Bitset.union (gen l) (Bitset.diff input (kill l))
    in
    let inputs =
      solve ~size:(Digraph.num_vertices g) ~start ~init
        ~step:(fun v input ->
          let output = transfer v input in
          List.map (fun w -> (w, output)) (downstream v))
        ~merge:(fun _ old input ->
          let joined = Bitset.union old input in
          if Bitset.equal joined old then None else Some joined)
    in
    let outputs = Array.mapi (fun v -> Option.map (transfer v)) inputs in
    { cfg; direction; inputs; outputs }

  let vertex_of r label = Cfg.vertex_of_label r.cfg label

  (* "before"/"after" are in program order regardless of direction. *)
  let before r label =
    match r.direction with
    | Forward -> r.inputs.(vertex_of r label)
    | Backward -> r.outputs.(vertex_of r label)

  let after r label =
    match r.direction with
    | Forward -> r.outputs.(vertex_of r label)
    | Backward -> r.inputs.(vertex_of r label)
end
