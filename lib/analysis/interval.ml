module I = Pp_ir.Instr

type t = { lo : int; hi : int }

(* Int-specialised: Stdlib's [min]/[max] are polymorphic compares. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

let top = { lo = min_int; hi = max_int }
let const n = { lo = n; hi = n }

let make lo hi =
  if lo > hi then invalid_arg "Interval.make";
  { lo; hi }

let lo t = t.lo
let hi t = t.hi
let is_top t = t.lo = min_int && t.hi = max_int
let is_const t = if t.lo = t.hi then Some t.lo else None
let equal (a : t) (b : t) = a.lo = b.lo && a.hi = b.hi
let mem n t = t.lo <= n && n <= t.hi
let leq a b = b.lo <= a.lo && a.hi <= b.hi

(* A join or widening returns an operand itself when the result equals
   it, so abstract values built from it can stay shared. *)
let join a b =
  if leq b a then a
  else if leq a b then b
  else { lo = min a.lo b.lo; hi = max a.hi b.hi }

let widen old next =
  if leq next old then old
  else
    {
      lo = (if next.lo < old.lo then min_int else old.lo);
      hi = (if next.hi > old.hi then max_int else old.hi);
    }

(* Overflow checks of machine arithmetic: [true] when the mathematical
   result ([s], [d], the product) does not fit in an OCaml int, i.e. when
   the VM would silently wrap.  Because ints are bounded, [min_int,
   max_int] is genuinely top — no sentinel encoding is needed, and a
   wrapping transfer simply returns [top] (saturating would be unsound). *)
let add_wraps a b s = (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0)
let sub_wraps a b d = (a >= 0) <> (b >= 0) && (d >= 0) <> (a >= 0)

let mul_wraps a b =
  a <> 0 && b <> 0
  && ((a = min_int && b = -1) || (b = min_int && a = -1) || a * b / b <> a)

let hull = function
  | [] -> invalid_arg "Interval.hull"
  | v :: vs ->
      List.fold_left
        (fun acc x -> { lo = min acc.lo x; hi = max acc.hi x })
        { lo = v; hi = v } vs

let add a b =
  let lo = a.lo + b.lo and hi = a.hi + b.hi in
  if add_wraps a.lo b.lo lo || add_wraps a.hi b.hi hi then (top, false)
  else ({ lo; hi }, true)

let sub a b =
  let lo = a.lo - b.hi and hi = a.hi - b.lo in
  if sub_wraps a.lo b.hi lo || sub_wraps a.hi b.lo hi then (top, false)
  else ({ lo; hi }, true)

(* The hull of the corner products [n * x], [n] a bound of [a] and [x] one
   of [x1], [x2]; top and [false] when one wraps. *)
let scale_hull a x1 x2 =
  if
    mul_wraps a.lo x1 || mul_wraps a.lo x2 || mul_wraps a.hi x1
    || mul_wraps a.hi x2
  then (top, false)
  else
    let p1 = a.lo * x1 and p2 = a.lo * x2 and p3 = a.hi * x1
    and p4 = a.hi * x2 in
    ( { lo = min (min p1 p2) (min p3 p4); hi = max (max p1 p2) (max p3 p4) },
      true )

let mul a b = scale_hull a b.lo b.hi

(* Truncated division.  The only wrapping case is min_int / -1; a zero
   divisor traps (no value flows), so divisor corners are the extreme
   nonzero values of each sign segment. *)
let div a b =
  if a.lo = min_int && mem (-1) b then (top, false)
  else
    let divisors =
      List.filter (fun d -> d <> 0 && mem d b) [ b.lo; b.hi; -1; 1 ]
    in
    if divisors = [] then (top, true)
    else
      let qs =
        List.concat_map (fun d -> [ a.lo / d; a.hi / d ]) divisors
      in
      (hull qs, true)

let rem a b =
  if b.lo = 0 && b.hi = 0 then (top, true)
  else
    let abs_cap x = if x = min_int then max_int else abs x in
    (* |a mod b| <= min (|a|, |b| - 1); the sign follows the dividend. *)
    let m =
      min
        (max (abs_cap a.lo) (abs_cap a.hi))
        (max (abs_cap b.lo) (abs_cap b.hi) - 1)
    in
    let lo = if a.lo >= 0 then 0 else -m
    and hi = if a.hi <= 0 then 0 else m in
    ({ lo; hi }, true)

(* Bitwise operators never overflow, so no_wrap is always true; precision
   is only attempted on non-negative ranges. *)
let and_ a b =
  if a.lo >= 0 && b.lo >= 0 then ({ lo = 0; hi = min a.hi b.hi }, true)
  else if b.lo >= 0 then ({ lo = 0; hi = b.hi }, true)
  else if a.lo >= 0 then ({ lo = 0; hi = a.hi }, true)
  else (top, true)

(* Smallest 2^k - 1 covering v (v >= 0). *)
let pow2_mask v =
  let rec go m = if m >= v then m else go ((m lsl 1) lor 1) in
  go 0

let or_ a b =
  if a.lo >= 0 && b.lo >= 0 then
    ({ lo = max a.lo b.lo; hi = pow2_mask (max a.hi b.hi) }, true)
  else (top, true)

let xor a b =
  if a.lo >= 0 && b.lo >= 0 then
    ({ lo = 0; hi = pow2_mask (max a.hi b.hi) }, true)
  else (top, true)

(* The VM masks shift counts to 6 bits. *)
let shift_counts b = if b.lo >= 0 && b.hi <= 63 then (b.lo, b.hi) else (0, 63)

let shl a b =
  let clo, chi = shift_counts b in
  (* a lsl c = a * 2^c; 1 lsl 62 already wraps to min_int in 63-bit ints. *)
  if chi >= 62 then
    if a.lo = 0 && a.hi = 0 then (const 0, true) else (top, false)
  else scale_hull a (1 lsl clo) (1 lsl chi)

let shr a b =
  let clo, chi = shift_counts b in
  (hull [ a.lo asr clo; a.lo asr chi; a.hi asr clo; a.hi asr chi ], true)

(* Returns the abstract result together with the no-wrap promise: [true]
   means no concrete operand pair drawn from the inputs overflows, which
   gates the modular transfer in {!Congruence}. *)
let binop_report op a b =
  match (op : I.ibinop) with
  | I.Add -> add a b
  | I.Sub -> sub a b
  | I.Mul -> mul a b
  | I.Div -> div a b
  | I.Rem -> rem a b
  | I.And -> and_ a b
  | I.Or -> or_ a b
  | I.Xor -> xor a b
  | I.Shl -> shl a b
  | I.Shr -> shr a b

let binop ~no_wrap:_ op a b = fst (binop_report op a b)

let bool_top = { lo = 0; hi = 1 }
let of_bool b = const (if b then 1 else 0)

let cmp c a b =
  let t = of_bool true and f = of_bool false in
  let disjoint = a.hi < b.lo || b.hi < a.lo in
  match (c : I.cmp) with
  | I.Eq ->
      if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo then t
      else if disjoint then f
      else bool_top
  | I.Ne ->
      if disjoint then t
      else if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo then f
      else bool_top
  | I.Lt -> if a.hi < b.lo then t else if a.lo >= b.hi then f else bool_top
  | I.Le -> if a.hi <= b.lo then t else if a.lo > b.hi then f else bool_top
  | I.Gt -> if a.lo > b.hi then t else if a.hi <= b.lo then f else bool_top
  | I.Ge -> if a.lo >= b.hi then t else if a.hi < b.lo then f else bool_top

let pp_bound ppf n =
  if n = min_int then Format.pp_print_string ppf "-inf"
  else if n = max_int then Format.pp_print_string ppf "+inf"
  else Format.pp_print_int ppf n

let pp ppf t =
  if t.lo = t.hi then Format.fprintf ppf "{%a}" pp_bound t.lo
  else Format.fprintf ppf "[%a,%a]" pp_bound t.lo pp_bound t.hi
