type t = {
  dcg : Dcg.t;
  costs : (string, int ref) Hashtbl.t;
  mutable stack : string list;
}

let create () =
  { dcg = Dcg.create (); costs = Hashtbl.create 64; stack = [] }

let enter t ~proc =
  Dcg.enter t.dcg ~proc;
  t.stack <- proc :: t.stack

let exit t ~cost =
  match t.stack with
  | [] -> invalid_arg "Gprof.exit: no active procedure"
  | proc :: rest ->
      (match Hashtbl.find_opt t.costs proc with
      | Some r -> r := !r + cost
      | None -> Hashtbl.replace t.costs proc (ref cost));
      Dcg.exit t.dcg;
      t.stack <- rest

let self_cost t proc =
  match Hashtbl.find_opt t.costs proc with Some r -> !r | None -> 0

let calls t ~caller ~callee = Dcg.calls t.dcg ~caller ~callee

let attributed t ~caller ~callee =
  let total_calls = Dcg.activations t.dcg callee in
  if total_calls = 0 then 0.0
  else
    float_of_int (self_cost t callee)
    *. float_of_int (calls t ~caller ~callee)
    /. float_of_int total_calls
