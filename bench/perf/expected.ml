(* The committed per-item digests the benchmark checks outputs against:
   one [<item key> <digest>] line per item, in [expected/grid.txt] and
   [expected/optimize.txt].  [perf.exe expect] writes them, and only
   after checking them against an independent reference. *)

type t = (string, string) Hashtbl.t

let files = [ "grid.txt"; "optimize.txt" ]

let of_lines lines =
  let t = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | Some i ->
            Hashtbl.replace t (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
        | None -> Hashtbl.replace t line "")
    lines;
  t

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let load dir =
  of_lines
    (List.concat_map (fun f -> read_lines (Filename.concat dir f)) files)

let find (t : t) key = Hashtbl.find_opt t key

(* Failure messages for one item's digest, none when it matches. *)
let check t key actual =
  match find t key with
  | None -> [ key ^ ": no expected digest" ]
  | Some d when d = actual -> []
  | Some d -> [ Printf.sprintf "%s: digest %S, expected %S" key actual d ]

let save ~dir ~file ~header entries =
  let oc = open_out (Filename.concat dir file) in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc ("# " ^ header ^ "\n");
  List.iter (fun (k, v) -> output_string oc (k ^ " " ^ v ^ "\n")) entries
