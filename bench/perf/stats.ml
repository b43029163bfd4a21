(* Order statistics over run samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The [p]-th percentile by linear interpolation on the (n+1) basis, with
   the bracketing ranks clamped to [1, n-1] — exactly Python's
   [statistics.quantiles] default ('exclusive') method, so the quartiles
   here match the ones an outside reader computes from the same values. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else if n = 1 then a.(0)
  else
    let h = p /. 100.0 *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float (Float.floor h))) in
    a.(j - 1) +. ((h -. float_of_int j) *. (a.(j) -. a.(j - 1)))

let median xs = percentile 50.0 xs

(* First and third quartile. *)
let quartiles xs = (percentile 25.0 xs, percentile 75.0 xs)

(* Tail percentiles worth reporting for [n] samples: each of p90, p99,
   p99.9 that has at least ten samples beyond it.  Integer per-mille
   arithmetic keeps the boundary exact (100 samples admit p90). *)
let tail_percentiles n =
  List.filter_map
    (fun (per_mille, name) ->
      if n * (1000 - per_mille) >= 10 * 1000 then
        Some (float_of_int per_mille /. 10.0, name)
      else None)
    [ (900, "p90"); (990, "p99"); (999, "p99.9") ]

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))
