type t = {
  edges : (string * string, int ref) Hashtbl.t;
  entries : (string, int ref) Hashtbl.t;
  mutable stack : string list;  (* head = current procedure *)
}

let root_name = "<root>"

let create () =
  { edges = Hashtbl.create 64; entries = Hashtbl.create 64;
    stack = [ root_name ] }

let bump table key =
  match Hashtbl.find_opt table key with
  | Some r -> incr r
  | None -> Hashtbl.replace table key (ref 1)

let enter t ~proc =
  let caller = match t.stack with c :: _ -> c | [] -> assert false in
  bump t.edges (caller, proc);
  bump t.entries proc;
  t.stack <- proc :: t.stack

let exit t =
  match t.stack with
  | [ _ ] | [] -> invalid_arg "Dcg.exit: only the root is active"
  | _ :: rest -> t.stack <- rest

let calls t ~caller ~callee =
  match Hashtbl.find_opt t.edges (caller, callee) with
  | Some r -> !r
  | None -> 0

let edges t =
  Hashtbl.fold (fun (a, b) r acc -> (a, b, !r) :: acc) t.edges []
  |> List.sort compare

let activations t proc =
  match Hashtbl.find_opt t.entries proc with Some r -> !r | None -> 0

let path_exists t chain =
  let rec walk = function
    | a :: (b :: _ as rest) ->
        if calls t ~caller:a ~callee:b > 0 then walk rest else false
    | [ _ ] | [] -> true
  in
  walk chain
