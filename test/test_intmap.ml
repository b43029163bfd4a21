(* Intmap against the Stdlib's balanced trees: random sequences of every
   operation the cache analysis uses, on maps and on sets (unit maps),
   must agree with Map.Make (Int) / Set.Make (Int) after every step. *)

module I = Pp_analysis.Intmap
module M = Map.Make (Int)
module S = Set.Make (Int)

(* Keys that stress the bit tests: the sign bit and the extremes, and the
   dense small ranges the analysis keys by — line numbers and frame
   offsets, negative ones included. *)
let key_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, int_range 0 40);
      (3, map (fun w -> w * 8) (int_range (-8) 16));
      (1, int_range (-40) (-1));
      ( 1,
        oneofl
          [ 0; 1; -1; min_int; max_int; min_int + 1; max_int - 1; 1 lsl 61;
            -(1 lsl 61); 1 lsl 32 ] );
      (1, int);
    ]

type op =
  | Add of int * int
  | Remove of int
  | Filter_map of int  (* drops the keys [= r] mod 3, bumps odd values *)
  | Union of (int * int) list
  | Inter of (int * int) list  (* keeps the larger value, drops equal ones *)
  | Reset of (int * int) list

let pp_pairs l =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)

let pp_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Filter_map r -> Printf.sprintf "filter_map %d" r
  | Union l -> "union [" ^ pp_pairs l ^ "]"
  | Inter l -> "inter [" ^ pp_pairs l ^ "]"
  | Reset l -> "reset [" ^ pp_pairs l ^ "]"

let op_gen =
  let open QCheck.Gen in
  let pairs = list_size (int_bound 12) (pair key_gen (int_bound 4)) in
  frequency
    [
      (6, map2 (fun k v -> Add (k, v)) key_gen (int_bound 4));
      (3, map (fun k -> Remove k) key_gen);
      (1, map (fun r -> Filter_map r) (int_bound 2));
      (2, map (fun l -> Union l) pairs);
      (2, map (fun l -> Inter l) pairs);
      (1, map (fun l -> Reset l) pairs);
    ]

let of_list_i l = List.fold_left (fun m (k, v) -> I.add k v m) I.empty l
let of_list_m l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l

let filter_f r k v =
  if ((k mod 3) + 3) mod 3 = r then None
  else if v land 1 = 1 then Some (v + 1)
  else Some v

let inter_f _ x y = if x = y then None else Some (Int.max x y)

let apply (i, m) = function
  | Add (k, v) -> (I.add k v i, M.add k v m)
  | Remove k -> (I.remove k i, M.remove k m)
  | Filter_map r ->
      (I.filter_map (filter_f r) i, M.filter_map (filter_f r) m)
  | Union l ->
      ( I.union i (of_list_i l),
        M.union (fun _ a _ -> Some a) m (of_list_m l) )
  | Inter l ->
      ( I.inter inter_f i (of_list_i l),
        M.merge
          (fun k x y ->
            match (x, y) with Some x, Some y -> inter_f k x y | _ -> None)
          m (of_list_m l) )
  | Reset l -> (of_list_i l, of_list_m l)

let m_sub f s t =
  M.for_all
    (fun k x -> match M.find_opt k t with Some y -> f x y | None -> false)
    s

(* Everything observable agrees: bindings, emptiness, lookups of every
   bound key and of the probes, [exists], and [sub] against the previous
   map in both directions. *)
let agree ~where ~probes ~prev (i, m) =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) where in
  if I.bindings i <> M.bindings m then
    fail "bindings [%s], model [%s]" (pp_pairs (I.bindings i))
      (pp_pairs (M.bindings m));
  if I.is_empty i <> M.is_empty m then fail "is_empty";
  List.iter
    (fun k ->
      if I.find_opt k i <> M.find_opt k m then fail "find_opt %d" k;
      if I.mem k i <> M.mem k m then fail "mem %d" k;
      if I.exists (fun k' _ -> k' = k) i <> M.mem k m then
        fail "exists %d" k)
    (probes @ List.map fst (M.bindings m));
  if I.exists (fun _ v -> v = 3) i <> M.exists (fun _ v -> v = 3) m then
    fail "exists value 3";
  let pi, pm = prev in
  List.iter
    (fun (name, f) ->
      if I.sub f i pi <> m_sub f m pm then fail "sub %s (new, previous)" name;
      if I.sub f pi i <> m_sub f pm m then fail "sub %s (previous, new)" name;
      if not (I.sub f i i) then fail "sub %s (new, new)" name)
    [ ("any", fun _ _ -> true); ("no greater", fun a b -> b <= a);
      ("equal", Int.equal) ]

(* The contract that lets callers detect "unchanged" by [==]. *)
let shares ~where (i, _) op i' =
  let fail what =
    QCheck.Test.fail_reportf "%s: %s copied the map" where what
  in
  match op with
  | Add (k, v) when I.find_opt k i = Some v -> if i' != i then fail "add"
  | Remove k when not (I.mem k i) -> if i' != i then fail "remove"
  | Filter_map r
    when List.for_all (fun (k, v) -> filter_f r k v = Some v) (I.bindings i)
    ->
      if i' != i then fail "filter_map keeping every value"
  | Union l when List.for_all (fun (k, _) -> I.mem k i) l ->
      if i' != i then fail "union of a subset"
  | _ -> ()

let prop_map =
  QCheck.Test.make ~name:"intmap == Map.Make (Int), random operations"
    ~count:300 ~long_factor:50
    QCheck.(
      make
        ~print:(fun (ops, probes) ->
          String.concat "; " (List.map pp_op ops)
          ^ "\nprobes: "
          ^ String.concat "," (List.map string_of_int probes))
        Gen.(
          pair
            (list_size (int_bound 40) op_gen)
            (list_size (int_bound 8) key_gen)))
    (fun (ops, probes) ->
      ignore
        (List.fold_left
           (fun (k, st) op ->
             let where = Printf.sprintf "after step %d (%s)" k (pp_op op) in
             let st' = apply st op in
             shares ~where st op (fst st');
             agree ~where ~probes ~prev:st st';
             (k + 1, st'))
           (0, (I.empty, M.empty))
           ops);
      true)

(* Sets are unit maps: add, union, membership, [exists] and inclusion
   against Set.Make (Int). *)
let set_of l = List.fold_left (fun s k -> I.add k () s) I.empty l
let keys s = List.map fst (I.bindings s)

let prop_set =
  QCheck.Test.make ~name:"intmap sets == Set.Make (Int)" ~count:300
    ~long_factor:50
    QCheck.(
      make
        ~print:(fun (a, b) ->
          Printf.sprintf "[%s] [%s]"
            (String.concat "," (List.map string_of_int a))
            (String.concat "," (List.map string_of_int b)))
        Gen.(
          pair
            (list_size (int_bound 30) key_gen)
            (list_size (int_bound 30) key_gen)))
    (fun (a, b) ->
      let ia = set_of a and ib = set_of b in
      let sa = S.of_list a and sb = S.of_list b in
      let u = I.union ia ib in
      let near k k' = abs (k - k') < 32 in
      keys ia = S.elements sa
      && keys u = S.elements (S.union sa sb)
      && I.sub (fun () () -> true) ia ib = S.subset sa sb
      && I.sub (fun () () -> true) ib u
      && I.union u ia == u
      && List.for_all
           (fun k ->
             I.mem k u = S.mem k (S.union sa sb)
             && I.exists (fun k' () -> near k k') ia
                = S.exists (fun k' -> near k k') sa)
           (a @ b @ [ 0; min_int; max_int ]))

let suite =
  [ QCheck_alcotest.to_alcotest prop_map; QCheck_alcotest.to_alcotest prop_set ]
