(* [perf.exe compare BASE_DIR CHANGE_DIR]: per metric and workload, each
   side's median and quartiles over its untraced runs, and a verdict by
   the metric's bound.  Runs pair up in seed order, then file order.

   - unresolved: either side's spread (quartile distance over median) is
     wider than the bound, unless every change run reads better than
     every base run;
   - improved: at least ten pairs, the change wins at least nine tenths
     of them (ties count for neither side), and the medians differ by
     more than the base's quartile distance;
   - worse: the change's median is worse than the base's by more than
     the bound;
   - unchanged: otherwise. *)

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type side = { median : float; q1 : float; q3 : float; n : int }

let side xs =
  let q1, q3 = Stats.quartiles xs in
  { median = Stats.median xs; q1; q3; n = List.length xs }

let spread s =
  let iqr = s.q3 -. s.q1 in
  if iqr = 0.0 then 0.0 else if s.median = 0.0 then infinity
  else iqr /. Float.abs s.median

(* [base] and [change] are paired samples: index i of one pairs with
   index i of the other. *)
let verdict ~better ~bound base change =
  let b = side base and c = side change in
  let gain x y = match better with Catalogue.Lower -> x -. y | Catalogue.Higher -> y -. x in
  let pairs = List.combine base change in
  let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.0) pairs) in
  let improved =
    List.length pairs >= 10
    && 10 * wins >= 9 * List.length pairs
    && gain b.median c.median > b.q3 -. b.q1
  in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.0) base) change
  in
  let worse = -.gain b.median c.median > bound *. Float.abs b.median in
  if Float.max (spread b) (spread c) > bound && not all_better then Unresolved
  else if improved then Improved
  else if worse then Worse
  else Unchanged

type run = { workload : string; seed : int; metrics : (string * float) list }

let load_run path =
  let j = Json.read_file path in
  if Json.member "traced" j = Json.Bool true then None
  else
    Some
      {
        workload = Json.to_str (Json.member "workload" j);
        seed = int_of_float (Json.to_num (Json.member "seed" j));
        metrics =
          List.map
            (fun (k, v) -> (k, Json.to_num (Json.member "value" v)))
            (Json.to_obj (Json.member "metrics" j));
      }

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f -> load_run (Filename.concat dir f))

(* One row per (workload, metric) both sides measured. *)
let rows base change =
  let workloads =
    List.filter
      (fun w -> List.exists (fun r -> r.workload = w) base)
      (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)
  in
  List.concat_map
    (fun w ->
      let runs side =
        List.filter (fun r -> r.workload = w) side
        |> List.stable_sort (fun a b -> compare a.seed b.seed)
      in
      let base_runs = runs base and change_runs = runs change in
      List.filter_map
        (fun (m : Catalogue.metric) ->
          let values rs = List.filter_map (fun r -> List.assoc_opt m.Catalogue.name r.metrics) rs in
          match (values base_runs, values change_runs) with
          | [], _ | _, [] -> None
          | bs, cs ->
              let n = min (List.length bs) (List.length cs) in
              let take xs = List.filteri (fun i _ -> i < n) xs in
              let bs = take bs and cs = take cs in
              Some
                ( w,
                  m,
                  side bs,
                  side cs,
                  verdict ~better:m.Catalogue.better ~bound:m.Catalogue.bound bs cs ))
        Catalogue.end_to_end)
    workloads

let render rows =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "%-9s %-14s %-34s %-34s %-24s %s" "workload" "metric" "base median [q1, q3] (n)"
    "change median [q1, q3] (n)" "change vs base" "verdict";
  List.iter
    (fun (w, (m : Catalogue.metric), b, c, v) ->
      let show s = Printf.sprintf "%.6g [%.6g, %.6g] (%d)" s.median s.q1 s.q3 s.n in
      let rel =
        if b.median = 0.0 then Printf.sprintf "%+.6g on base 0" (c.median -. b.median)
        else
          Printf.sprintf "%+.2f%% of %.6g %s"
            (100.0 *. (c.median -. b.median) /. Float.abs b.median)
            b.median m.Catalogue.unit
      in
      line "%-9s %-14s %-34s %-34s %-24s %s (%s, bound %g)" w m.Catalogue.name (show b)
        (show c) rel (verdict_name v)
        (Catalogue.better_name m.Catalogue.better)
        m.Catalogue.bound)
    rows;
  Buffer.contents buf
