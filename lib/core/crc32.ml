(* CRC-32 (IEEE 802.3), table-driven, reflected, init/xorout 0xffffffff —
   identical to zlib's crc32().  Masked to 32 bits so the value is a small
   non-negative int on 64-bit OCaml. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let digest s =
  let table = Lazy.force table in
  let crc = ref 0xffffffff in
  String.iter
    (fun ch ->
      crc := table.((!crc lxor Char.code ch) land 0xff) lxor (!crc lsr 8))
    s;
  !crc lxor 0xffffffff

let tag line =
  if String.contains line '\n' then invalid_arg "Crc32.tag: embedded newline";
  Printf.sprintf "%s %08x" line (digest line)

let untag line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
      let content = String.sub line 0 i in
      let token = String.sub line (i + 1) (String.length line - i - 1) in
      (* Exactly the 8 lowercase hex digits %08x emits: int_of_string
         would also accept "0X", underscores and uppercase, which would
         let some single-character damage in the token itself pass. *)
      let canonical =
        String.length token = 8
        && String.for_all
             (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
             token
      in
      if canonical && int_of_string ("0x" ^ token) = digest content then
        Some content
      else None

(* --- checked-line files --- *)

let frame header records =
  let buf = Buffer.create 4096 in
  let line l =
    Buffer.add_string buf (tag l);
    Buffer.add_char buf '\n'
  in
  line (Printf.sprintf "%s %d" header (List.length records));
  List.iter line records;
  Buffer.contents buf

type damage = { total : int; recovered : int; first_bad_line : int }

(* The header's last field is the record count; what precedes it is the
   caller's. *)
let split_count content =
  let i = Option.value ~default:(-1) (String.rindex_opt content ' ') in
  let count = String.sub content (i + 1) (String.length content - i - 1) in
  match int_of_string_opt count with
  | Some n when n >= 0 && i >= 0 -> Ok (String.sub content 0 i, n)
  | _ -> Error (Printf.sprintf "bad record count %S" count)

let unframe ~record text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  match untag lines.(0) with
  | None -> Error (1, "damaged or missing header checksum")
  | Some content -> (
      match split_count content with
      | Error msg -> Error (1, msg)
      | Ok (header, total) ->
          let recovered = ref 0 in
          let bad = ref None in
          let i = ref 1 in
          while !bad = None && !i < Array.length lines do
            let lineno = !i + 1 in
            let line = lines.(!i) in
            if line = "" then
              (* The writer never emits blank lines: this is the trailing
                 element after the final newline (end of file) or a
                 damaged line.  Either way, stop. *)
              i := Array.length lines
            else if !recovered >= total then
              (* More records than the header promised: the tail was
                 spliced or duplicated.  The promised prefix is intact;
                 everything beyond it is suspect. *)
              bad := Some lineno
            else begin
              (match untag line with
              | Some content when record lineno content -> incr recovered
              | _ -> bad := Some lineno);
              incr i
            end
          done;
          if !bad = None && !recovered = total then Ok (header, None)
          else
            Ok
              ( header,
                Some
                  {
                    total;
                    recovered = !recovered;
                    first_bad_line =
                      (match !bad with Some ln -> ln | None -> !recovered + 2);
                  } ))

let temp_path path = path ^ ".tmp"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

type fault =
  | Crash_after of int
  | Torn_write
  | Flip_bit of int
  | Truncate_at of int

exception Killed_mid_write

(* Offsets wrap like a file position modulo [n], so a seeded fault plan
   need not know the payload's size. *)
let wrap k n = ((k mod n) + n) mod n

let flip_bit text k =
  if text = "" then text
  else
    let k = wrap k (8 * String.length text) in
    let b = Bytes.of_string text in
    Bytes.set b (k / 8)
      (Char.chr (Char.code (Bytes.get b (k / 8)) lxor (1 lsl (k mod 8))));
    Bytes.to_string b

let write_atomic ?fault path contents =
  let n = String.length contents in
  let tmp = temp_path path in
  let commit text =
    write_file tmp text;
    Sys.rename tmp path
  in
  match fault with
  | None -> commit contents
  | Some (Crash_after k) ->
      (* Killed before the rename: only a [.tmp] carcass of the first k
         bytes is left, the destination is untouched. *)
      write_file tmp (String.sub contents 0 (wrap k (n + 1)));
      raise Killed_mid_write
  | Some Torn_write ->
      (* What a non-atomic writer leaves when killed: a partial file at
         the destination itself, the failure the rename prevents. *)
      write_file path (String.sub contents 0 (n / 2));
      raise Killed_mid_write
  | Some (Flip_bit k) -> commit (flip_bit contents k)
  | Some (Truncate_at k) ->
      commit (if n = 0 then "" else String.sub contents 0 (wrap k n))
