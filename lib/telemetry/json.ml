type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | Sig of int * float
  | String of string
  | List of t list
  | Seq of t Seq.t
  | Object of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let iter_sep buf sep f xs =
  Seq.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; f x) xs

(* The layouts differ below the top level only in [colon] and [comma]. *)
let rec add ~colon ~comma buf v =
  let value = add ~colon ~comma buf in
  let member (k, v) = add_string buf k; Buffer.add_string buf colon; value v in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Fixed (d, x) -> Printf.bprintf buf "%.*f" d x
  | Sig (d, x) -> Printf.bprintf buf "%.*g" d x
  | String s -> add_string buf s
  | List xs -> value (Seq (List.to_seq xs))
  | Seq xs ->
      Buffer.add_char buf '[';
      iter_sep buf comma value xs;
      Buffer.add_char buf ']'
  | Object kvs ->
      Buffer.add_char buf '{';
      iter_sep buf comma member (List.to_seq kvs);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  add ~colon:":" ~comma:"," buf v;
  Buffer.contents buf

let to_lines rows =
  let buf = Buffer.create 4096 in
  let row v = Buffer.add_string buf "\n  "; add ~colon:": " ~comma:", " buf v in
  Buffer.add_char buf '[';
  iter_sep buf "," row (List.to_seq rows);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
