type 'a codec = { encode : 'a -> string; decode : string -> 'a }

let metrics_codec =
  {
    encode =
      (fun a ->
        String.concat " " (Array.to_list (Array.map string_of_int a)));
    decode =
      (fun s ->
        if String.trim s = "" then [||]
        else
          Array.of_list
            (List.map int_of_string
               (String.split_on_char ' ' (String.trim s))));
  }


(* Procedure names may contain anything but whitespace in practice; escape
   defensively anyway ('%' then spaces/newlines/percents as %XX). *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\n' | '\t' | '%' ->
          Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex i =
    match s.[i] with
    | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else if s.[i] <> '%' then begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
    else if i + 2 >= n then None
    else
      match (hex (i + 1), hex (i + 2)) with
      | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 3)
      | _ -> None
  in
  go 0

let write ~codec buf cct =
  Buffer.add_string buf
    (Printf.sprintf "cct 1 %d %d\n" (Cct.num_nodes cct)
       (if Cct.merged cct then 1 else 0));
  Cct.iter
    (fun node ->
      let parent =
        match Cct.parent node with Some p -> Cct.id p | None -> -1
      in
      Buffer.add_string buf
        (Printf.sprintf "node %d %d %d %d %s %s\n" (Cct.id node) parent
           (Cct.node_depth node) (Cct.nsites node)
           (escape (Cct.proc node))
           (codec.encode (Cct.data node))))
    cct;
  Cct.iter
    (fun node ->
      List.iter
        (fun (e : _ Cct.edge) ->
          Buffer.add_string buf
            (Printf.sprintf "edge %d %d %d %d %d %d\n" (Cct.id node)
               e.Cct.site (Cct.id e.Cct.target)
               (if e.Cct.is_backedge then 1 else 0)
               (match e.Cct.kind with Cct.Indirect -> 1 | Cct.Direct -> 0)
               e.Cct.calls))
        (Cct.edges node))
    cct

let to_string ~codec cct =
  let buf = Buffer.create 4096 in
  write ~codec buf cct;
  Buffer.contents buf

let to_file ~codec path cct = Crc32.write_atomic path (to_string ~codec cct)

exception Parse_error of int * string

let fail line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let of_string ~codec text =
  let lines = String.split_on_char '\n' text in
  let nodes : (int, 'a Cct.node) Hashtbl.t = Hashtbl.create 64 in
  let cct = ref None in
  (* The header's line and node count, checked once the nodes are in. *)
  let declared = ref (0, 0) in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let int s =
        match int_of_string_opt s with
        | Some n -> n
        | None -> fail lineno "bad integer %S" s
      in
      let line = String.trim line in
      if line <> "" then
        match String.split_on_char ' ' line with
        | "cct" :: "1" :: count :: merged :: _ ->
            declared := (lineno, int count);
            (* Defer creation until the root's data arrives. *)
            cct := Some (`Header (merged = "1"))
        | "node" :: id :: parent :: _depth :: nsites :: name :: rest -> (
            let id = int id in
            let parent = int parent in
            let nsites = int nsites in
            let proc =
              match unescape name with
              | Some proc -> proc
              | None -> fail lineno "bad escape in %S" name
            in
            let data =
              let s = String.concat " " rest in
              try codec.decode s with Failure _ -> fail lineno "bad data %S" s
            in
            match (!cct, parent) with
            | Some (`Header merged), -1 ->
                let t =
                  Cct.create ~merge_call_sites:merged
                    ~make_data:(fun ~proc:_ ~nsites:_ -> data)
                    ()
                in
                Hashtbl.replace nodes id (Cct.root t);
                cct := Some (`Tree t)
            | Some (`Tree t), _ ->
                if parent = -1 then fail lineno "duplicate root";
                let parent_node =
                  match Hashtbl.find_opt nodes parent with
                  | Some n -> n
                  | None -> fail lineno "unknown parent %d" parent
                in
                let node =
                  Cct.graft_node t ~parent:parent_node ~proc ~nsites ~data
                in
                if Cct.id node <> id then
                  fail lineno "node ids must be dense and in order";
                Hashtbl.replace nodes id node
            | Some (`Header _), _ -> fail lineno "first node must be the root"
            | None, _ -> fail lineno "node before header")
        | [ "edge"; from_; site; target; back; ind; calls ] -> (
            match !cct with
            | Some (`Tree t) ->
                let find what id =
                  match Hashtbl.find_opt nodes (int id) with
                  | Some n -> n
                  | None -> fail lineno "unknown %s %s" what id
                in
                Cct.graft_edge t ~from_:(find "source" from_) ~site:(int site)
                  ~target:(find "target" target)
                  ~is_backedge:(back = "1")
                  ~kind:(if ind = "1" then Cct.Indirect else Cct.Direct)
                  ~calls:(int calls)
            | Some (`Header _) | None -> fail lineno "edge before nodes")
        | word :: _ -> fail lineno "unknown record %S" word
        | [] -> ())
    lines;
  match !cct with
  | Some (`Tree t) ->
      let lineno, count = !declared in
      if Cct.num_nodes t <> count then
        fail lineno "header declares %d nodes, found %d" count
          (Cct.num_nodes t);
      t
  | Some (`Header _) | None ->
      raise (Parse_error (0, "empty or headerless input"))

let of_file ~codec path =
  of_string ~codec (In_channel.with_open_bin path In_channel.input_all)

(* Metric arrays sum pointwise; a record seen by one tree only keeps (a
   copy of) its metrics. *)
exception Arity

let sum_metrics a b =
  match (a, b) with
  | Some a, Some b ->
      if Array.length a <> Array.length b then raise Arity;
      Array.init (Array.length a) (fun i -> a.(i) + b.(i))
  | Some a, None -> Array.copy a
  | None, Some b -> Array.copy b
  | None, None -> [||]

let merge_files paths =
  let header = Pp_ir.Diag.proc_loc "<header>" in
  let add acc path =
    Result.bind acc (fun acc ->
        match (of_file ~codec:metrics_codec path, acc) with
        | next, None -> Ok (Some next)
        | next, Some t -> (
            match Cct.merge ~merge_data:sum_metrics t next with
            | merged -> Ok (Some merged)
            | exception Arity ->
                Error
                  (`Conflict
                    (Pp_ir.Diag.error header
                       "metric arity differs between shards"))
            | exception Invalid_argument msg ->
                Error (`Conflict (Pp_ir.Diag.error header "%s: %s" path msg)))
        | exception Parse_error (line, msg) ->
            Error (`Read (Printf.sprintf "%s:%d: %s" path line msg))
        | exception Sys_error msg -> Error (`Read msg))
  in
  match List.fold_left add (Ok None) paths with
  | Ok None -> Error (`Read "nothing to merge")
  | Ok (Some t) -> Ok t
  | Error e -> Error e

let escape_label s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | c -> String.make 1 c)
       (List.of_seq (String.to_seq s)))

let to_dot cct =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph cct {\n  node [shape=box];\n";
  Cct.iter
    (fun node ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" (Cct.id node)
           (escape_label (Cct.proc node))))
    cct;
  Cct.iter
    (fun node ->
      List.iter
        (fun (e : _ Cct.edge) ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=\"site %d, %d\"%s];\n"
               (Cct.id node) (Cct.id e.Cct.target) e.Cct.site e.Cct.calls
               (if e.Cct.is_backedge then ", style=dashed" else "")))
        (Cct.edges node))
    cct;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
