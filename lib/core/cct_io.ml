type 'a codec = { encode : 'a -> string; decode : string -> 'a }

let metrics_codec =
  {
    encode =
      (fun a ->
        let w = Writer.create (8 * Array.length a) in
        Array.iteri
          (fun i n ->
            if i > 0 then Writer.char w ' ';
            Writer.int w n)
          a;
        Writer.contents w);
    decode =
      (fun s ->
        let c = Cursor.create s in
        Cursor.trim c;
        if Cursor.is_empty c then [||]
        else begin
          Cursor.split c;
          Array.init (Cursor.fields c) (Cursor.int c)
        end);
  }

(* Procedure names may contain anything but whitespace in practice; escape
   defensively anyway ('%' then spaces/newlines/percents as %XX). *)
let escape s =
  let w = Writer.create (String.length s) in
  Writer.escaped w s;
  Writer.contents w

let unescape = Cursor.unescape

let flag b = if b then 1 else 0

let write ~codec w cct =
  Writer.string w "cct 1 ";
  Writer.int w (Cct.num_nodes cct);
  Writer.char w ' ';
  Writer.int w (flag (Cct.merged cct));
  Writer.newline w;
  Cct.iter
    (fun node ->
      Writer.string w "node ";
      Writer.int w (Cct.id node);
      Writer.char w ' ';
      Writer.int w
        (match Cct.parent node with Some p -> Cct.id p | None -> -1);
      Writer.char w ' ';
      Writer.int w (Cct.node_depth node);
      Writer.char w ' ';
      Writer.int w (Cct.nsites node);
      Writer.char w ' ';
      Writer.escaped w (Cct.proc node);
      Writer.char w ' ';
      Writer.string w (codec.encode (Cct.data node));
      Writer.newline w)
    cct;
  Cct.iter
    (fun node ->
      List.iter
        (fun (e : _ Cct.edge) ->
          Writer.string w "edge ";
          Writer.int w (Cct.id node);
          Writer.char w ' ';
          Writer.int w e.Cct.site;
          Writer.char w ' ';
          Writer.int w (Cct.id e.Cct.target);
          Writer.char w ' ';
          Writer.int w (flag e.Cct.is_backedge);
          Writer.char w ' ';
          Writer.int w
            (match e.Cct.kind with Cct.Indirect -> 1 | Cct.Direct -> 0);
          Writer.char w ' ';
          Writer.int w e.Cct.calls;
          Writer.newline w)
        (Cct.edges node))
    cct

let to_string ~codec cct =
  let w = Writer.create (64 * Cct.num_nodes cct) in
  write ~codec w cct;
  Writer.contents w

let to_file ~codec path cct = Crc32.write_atomic path (to_string ~codec cct)

exception Parse_error of int * string

let fail line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let of_string ~codec text =
  let c = Cursor.create text in
  let nodes : (int, 'a Cct.node) Hashtbl.t = Hashtbl.create 64 in
  let cct = ref None in
  (* The header's line and node count, checked once the nodes are in. *)
  let declared = ref (0, 0) in
  while Cursor.next_line c do
    let lineno = Cursor.line_no c in
    let int i =
      match Cursor.int c i with
      | n -> n
      | exception Failure _ -> fail lineno "bad integer %S" (Cursor.field c i)
    in
    Cursor.trim c;
    if not (Cursor.is_empty c) then begin
      Cursor.split c;
      let fields = Cursor.fields c in
      if fields >= 4 && Cursor.field_is c 0 "cct" && Cursor.field_is c 1 "1"
      then begin
        declared := (lineno, int 2);
        (* Defer creation until the root's data arrives. *)
        cct := Some (`Header (Cursor.field_is c 3 "1"))
      end
      else if fields >= 6 && Cursor.field_is c 0 "node" then begin
        let id = int 1 in
        let parent = int 2 in
        let nsites = int 4 in
        let proc =
          match Cursor.unescaped c 5 with
          | Some proc -> proc
          | None -> fail lineno "bad escape in %S" (Cursor.field c 5)
        in
        let data =
          let s = Cursor.rest c 6 in
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
        | None, _ -> fail lineno "node before header"
      end
      else if fields = 7 && Cursor.field_is c 0 "edge" then begin
        let from_ = 1 and site = 2 and target = 3 and calls = 6 in
        match !cct with
        | Some (`Tree t) ->
            let find what i =
              match Hashtbl.find_opt nodes (int i) with
              | Some n -> n
              | None -> fail lineno "unknown %s %s" what (Cursor.field c i)
            in
            Cct.graft_edge t ~from_:(find "source" from_) ~site:(int site)
              ~target:(find "target" target)
              ~is_backedge:(Cursor.field_is c 4 "1")
              ~kind:
                (if Cursor.field_is c 5 "1" then Cct.Indirect else Cct.Direct)
              ~calls:(int calls)
        | Some (`Header _) | None -> fail lineno "edge before nodes"
      end
      else fail lineno "unknown record %S" (Cursor.field c 0)
    end
  done;
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
