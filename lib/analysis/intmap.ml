(* Little-endian Patricia trees (Okasaki & Gill, "Fast Mergeable Integer
   Maps", 1998).  A [Branch (p, m, l, r)] holds the keys whose bits below
   the single-bit mask [m] equal the prefix [p]; [l] has the keys with bit
   [m] clear, [r] those with it set, and masks grow towards the leaves.
   Navigation tests bits, never calls a comparison, and the shape is a
   function of the key set alone. *)

type 'a t = Empty | Leaf of int * 'a | Branch of int * int * 'a t * 'a t

let empty = Empty
let is_empty = function Empty -> true | Leaf _ | Branch _ -> false
let singleton k v = Leaf (k, v)
let zero_bit k m = k land m = 0
let mask k m = k land (m - 1)
let match_prefix k p m = mask k m = p

(* [lower m n]: the bit [m] lies below the bit [n].  The sign bit is
   [min_int], whose predecessor [max_int] has every lower bit set. *)
let lower m n = m land (n - 1) <> 0

(* The tree holding [t0] (all keys agree with [p0] below the result's
   mask) and [t1] (likewise with [p1]), whose prefixes differ. *)
let link p0 t0 p1 t1 =
  let m = (p0 lxor p1) land -(p0 lxor p1) in
  if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
  else Branch (mask p0 m, m, t1, t0)

(* A branch whose side may have emptied. *)
let branch p m l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _ -> Branch (p, m, l, r)

let rec find_opt k = function
  | Empty -> None
  | Leaf (j, v) -> if j = k then Some v else None
  | Branch (_, m, l, r) -> find_opt k (if zero_bit k m then l else r)

let rec mem k = function
  | Empty -> false
  | Leaf (j, _) -> j = k
  | Branch (_, m, l, r) -> mem k (if zero_bit k m then l else r)

let rec add k v t =
  match t with
  | Empty -> Leaf (k, v)
  | Leaf (j, w) ->
      if j = k then if w == v then t else Leaf (k, v)
      else link k (Leaf (k, v)) j t
  | Branch (p, m, l, r) ->
      if match_prefix k p m then
        if zero_bit k m then
          let l' = add k v l in
          if l' == l then t else Branch (p, m, l', r)
        else
          let r' = add k v r in
          if r' == r then t else Branch (p, m, l, r')
      else link k (Leaf (k, v)) p t

let rec remove k t =
  match t with
  | Empty -> Empty
  | Leaf (j, _) -> if j = k then Empty else t
  | Branch (p, m, l, r) ->
      if match_prefix k p m then
        if zero_bit k m then
          let l' = remove k l in
          if l' == l then t else branch p m l' r
        else
          let r' = remove k r in
          if r' == r then t else branch p m l r'
      else t

let rec exists f = function
  | Empty -> false
  | Leaf (k, v) -> f k v
  | Branch (_, _, l, r) -> exists f l || exists f r

let rec filter_map f t =
  match t with
  | Empty -> Empty
  | Leaf (k, v) -> (
      match f k v with
      | Some v' -> if v' == v then t else Leaf (k, v')
      | None -> Empty)
  | Branch (p, m, l, r) ->
      let l' = filter_map f l and r' = filter_map f r in
      if l' == l && r' == r then t else branch p m l' r'

let rec union s t =
  match (s, t) with
  | Empty, _ -> t
  | _, Empty -> s
  | Leaf (k, v), _ -> (
      match t with Leaf (j, _) when j = k -> s | _ -> add k v t)
  | _, Leaf (k, v) -> if mem k s then s else add k v s
  | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if s == t then s
      else if m = n && p = q then
        let u0 = union s0 t0 and u1 = union s1 t1 in
        if u0 == s0 && u1 == s1 then s else Branch (p, m, u0, u1)
      else if lower m n && match_prefix q p m then
        if zero_bit q m then
          let u0 = union s0 t in
          if u0 == s0 then s else Branch (p, m, u0, s1)
        else
          let u1 = union s1 t in
          if u1 == s1 then s else Branch (p, m, s0, u1)
      else if lower n m && match_prefix p q n then
        if zero_bit p n then Branch (q, n, union s t0, t1)
        else Branch (q, n, t0, union s t1)
      else link p s q t

let rec inter f s t =
  match (s, t) with
  | Empty, _ | _, Empty -> Empty
  | Leaf (k, x), _ -> (
      match find_opt k t with
      | Some y -> (
          match f k x y with Some z -> Leaf (k, z) | None -> Empty)
      | None -> Empty)
  | _, Leaf (k, y) -> (
      match find_opt k s with
      | Some x -> (
          match f k x y with Some z -> Leaf (k, z) | None -> Empty)
      | None -> Empty)
  | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if m = n then
        if p = q then branch p m (inter f s0 t0) (inter f s1 t1) else Empty
      else if lower m n then
        if match_prefix q p m then
          inter f (if zero_bit q m then s0 else s1) t
        else Empty
      else if match_prefix p q n then
        inter f s (if zero_bit p n then t0 else t1)
      else Empty

let rec sub f s t =
  s == t
  ||
  match (s, t) with
  | Empty, _ -> true
  | _, Empty -> false
  | Leaf (k, x), _ -> (
      match find_opt k t with Some y -> f x y | None -> false)
  | Branch _, Leaf _ -> false
  | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      if m = n then p = q && sub f s0 t0 && sub f s1 t1
      else
        (* a tree splitting on a lower bit than [t] has keys on both
           sides of a bit every key of [t] agrees on *)
        lower n m && match_prefix p q n
        && sub f s (if zero_bit p n then t0 else t1)

let bindings t =
  let rec go acc = function
    | Empty -> acc
    | Leaf (k, v) -> (k, v) :: acc
    | Branch (_, _, l, r) -> go (go acc l) r
  in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (go [] t)
