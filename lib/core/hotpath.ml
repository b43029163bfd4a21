type class_stats = { num : int; insts : int; misses : int }

type path_classes = {
  all : class_stats;
  dense : class_stats;
  sparse : class_stats;
  cold : class_stats;
}

let zero = { num = 0; insts = 0; misses = 0 }

let add c (m : Profile.path_metrics) =
  { num = c.num + 1; insts = c.insts + m.m1; misses = c.misses + m.m0 }

type path_class = Dense | Sparse | Cold

(* Classification of one path given program totals. *)
let path_class ~threshold ~total_misses ~avg_ratio (m : Profile.path_metrics)
    =
  let hot =
    float_of_int m.m0 >= threshold *. float_of_int total_misses
    && m.m0 > 0
  in
  if not hot then Cold
  else
    let ratio =
      if m.m1 = 0 then infinity else float_of_int m.m0 /. float_of_int m.m1
    in
    if ratio > avg_ratio then Dense else Sparse

let totals prof =
  let misses = Profile.total_m0 prof in
  let insts = Profile.total_m1 prof in
  let avg_ratio =
    if insts = 0 then 0.0 else float_of_int misses /. float_of_int insts
  in
  (misses, insts, avg_ratio)

let classify_paths ?(threshold = 0.01) (prof : Profile.t) =
  let total_misses, _, avg_ratio = totals prof in
  List.fold_left
    (fun acc (p : Profile.proc_profile) ->
      List.fold_left
        (fun acc (_, m) ->
          let acc = { acc with all = add acc.all m } in
          match path_class ~threshold ~total_misses ~avg_ratio m with
          | Dense -> { acc with dense = add acc.dense m }
          | Sparse -> { acc with sparse = add acc.sparse m }
          | Cold -> { acc with cold = add acc.cold m })
        acc p.paths)
    { all = zero; dense = zero; sparse = zero; cold = zero }
    prof.procs

type proc_class_stats = {
  procs : int;
  avg_paths_per_proc : float;
  miss_fraction : float;
}

type proc_classes = {
  dense_procs : proc_class_stats;
  sparse_procs : proc_class_stats;
  cold_procs : proc_class_stats;
}

let classify_procs (prof : Profile.t) =
  let threshold = 0.01 in
  let total_misses, _, avg_ratio = totals prof in
  let buckets = Hashtbl.create 4 in
  List.iter
    (fun (p : Profile.proc_profile) ->
      if p.paths <> [] then begin
        let misses =
          List.fold_left (fun acc (_, m) -> acc + m.Profile.m0) 0 p.paths
        in
        let insts =
          List.fold_left (fun acc (_, m) -> acc + m.Profile.m1) 0 p.paths
        in
        let cls =
          path_class ~threshold ~total_misses ~avg_ratio
            { Profile.freq = 0; m0 = misses; m1 = insts }
        in
        let npaths = List.length p.paths in
        let n, paths, miss =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt buckets cls)
        in
        Hashtbl.replace buckets cls (n + 1, paths + npaths, miss + misses)
      end)
    prof.procs;
  let stats cls =
    let n, paths, miss =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt buckets cls)
    in
    {
      procs = n;
      avg_paths_per_proc =
        (if n = 0 then 0.0 else float_of_int paths /. float_of_int n);
      miss_fraction =
        (if total_misses = 0 then 0.0
         else float_of_int miss /. float_of_int total_misses);
    }
  in
  {
    dense_procs = stats Dense;
    sparse_procs = stats Sparse;
    cold_procs = stats Cold;
  }

let hot_paths ?(threshold = 0.01) (prof : Profile.t) =
  let total_misses, _, avg_ratio = totals prof in
  List.concat_map
    (fun (p : Profile.proc_profile) ->
      List.filter_map
        (fun (sum, m) ->
          match path_class ~threshold ~total_misses ~avg_ratio m with
          | Dense | Sparse -> Some (p.proc, sum, m)
          | Cold -> None)
        p.paths)
    prof.procs
  |> List.sort (fun (_, _, a) (_, _, b) ->
         compare b.Profile.m0 a.Profile.m0)

let avg_paths_through_hot_blocks (prof : Profile.t) =
  let hot = hot_paths prof in
  (* Per procedure: paths through each block (over all executed paths). *)
  let through = Hashtbl.create 64 in  (* (proc, block) -> count *)
  List.iter
    (fun (p : Profile.proc_profile) ->
      List.iter
        (fun (sum, _) ->
          let path = Ball_larus.decode p.numbering sum in
          List.iter
            (fun b ->
              let key = (p.proc, b) in
              Hashtbl.replace through key
                (1 + Option.value ~default:0 (Hashtbl.find_opt through key)))
            path.Ball_larus.blocks)
        p.paths)
    prof.procs;
  (* Blocks lying on hot paths. *)
  let hot_blocks = Hashtbl.create 64 in
  List.iter
    (fun (proc, sum, _) ->
      match Profile.find_proc prof proc with
      | None -> ()
      | Some p ->
          let path = Ball_larus.decode p.numbering sum in
          List.iter
            (fun b -> Hashtbl.replace hot_blocks (proc, b) ())
            path.Ball_larus.blocks)
    hot;
  let n = Hashtbl.length hot_blocks in
  if n = 0 then 0.0
  else begin
    let sum =
      Hashtbl.fold
        (fun key () acc ->
          acc + Option.value ~default:0 (Hashtbl.find_opt through key))
        hot_blocks 0
    in
    float_of_int sum /. float_of_int n
  end

let pp_class ppf name (c : class_stats) ~all =
  let pct part whole =
    if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  Format.fprintf ppf "%-7s num=%-6d insts=%5.1f%% misses=%5.1f%%@," name
    c.num (pct c.insts all.insts) (pct c.misses all.misses)

let pp_path_classes ppf t =
  Format.fprintf ppf "@[<v>all     num=%-6d insts=%d misses=%d@," t.all.num
    t.all.insts t.all.misses;
  pp_class ppf "dense" t.dense ~all:t.all;
  pp_class ppf "sparse" t.sparse ~all:t.all;
  pp_class ppf "cold" t.cold ~all:t.all;
  Format.fprintf ppf "@]"

let pp_proc_classes ppf t =
  let row name (s : proc_class_stats) =
    Format.fprintf ppf "%-7s procs=%-4d paths/proc=%6.1f misses=%5.1f%%@,"
      name s.procs s.avg_paths_per_proc (100.0 *. s.miss_fraction)
  in
  Format.fprintf ppf "@[<v>";
  row "dense" t.dense_procs;
  row "sparse" t.sparse_procs;
  row "cold" t.cold_procs;
  Format.fprintf ppf "@]"
