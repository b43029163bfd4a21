type init = Init_ints of int array | Init_floats of float array

type global = { gname : string; size_words : int; init : init option }

type t = { procs : Proc.t array; globals : global array; main : string }

let check_unique kind names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Program.make: duplicate %s %S" kind n);
      Hashtbl.add seen n ())
    names

let init_length = function
  | Init_ints a -> Array.length a
  | Init_floats a -> Array.length a

let make ~procs ~globals ~main =
  check_unique "procedure" (List.map (fun (p : Proc.t) -> p.name) procs);
  check_unique "global" (List.map (fun g -> g.gname) globals);
  List.iter
    (fun g ->
      match g.init with
      | Some init when init_length init > g.size_words ->
          invalid_arg
            (Printf.sprintf "Program.make: init of %S exceeds its size"
               g.gname)
      | Some _ | None -> ())
    globals;
  (match List.find_opt (fun (p : Proc.t) -> p.name = main) procs with
  | None -> invalid_arg (Printf.sprintf "Program.make: no main %S" main)
  | Some p ->
      if p.iparams <> 0 || p.fparams <> 0 then
        invalid_arg "Program.make: main must take no parameters");
  { procs = Array.of_list procs; globals = Array.of_list globals; main }

let proc_index t name =
  let rec search i =
    if i >= Array.length t.procs then None
    else if t.procs.(i).Proc.name = name then Some i
    else search (i + 1)
  in
  search 0

let find_proc t name =
  Option.map (fun i -> t.procs.(i)) (proc_index t name)

let proc_exn t name =
  match find_proc t name with Some p -> p | None -> raise Not_found

let find_global t name =
  Array.find_opt (fun g -> g.gname = name) t.globals

let map_procs f t =
  { t with procs = Array.map f t.procs }

let size_slots t =
  Array.fold_left (fun acc p -> acc + Proc.size_slots p) 0 t.procs
