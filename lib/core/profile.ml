module Event = Pp_machine.Event

type path_metrics = { freq : int; m0 : int; m1 : int }

type proc_profile = {
  proc : string;
  numbering : Ball_larus.t;
  paths : (int * path_metrics) list;
}

type t = { pic0 : Event.t; pic1 : Event.t; procs : proc_profile list }

let sum_over f t =
  List.fold_left
    (fun acc p ->
      List.fold_left (fun acc (_, m) -> acc + f m) acc p.paths)
    0 t.procs

let total_m0 = sum_over (fun m -> m.m0)
let total_m1 = sum_over (fun m -> m.m1)

let find_proc t name = List.find_opt (fun p -> p.proc = name) t.procs

let decode p sum = Ball_larus.decode p.numbering sum

let ranked_paths p =
  List.sort (fun (_, a) (_, b) -> compare b.m0 a.m0) p.paths
