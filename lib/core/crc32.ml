(* CRC-32 (IEEE 802.3), table-driven, reflected, init/xorout 0xffffffff —
   identical to zlib's crc32().  Masked to 32 bits so the value is a small
   non-negative int on 64-bit OCaml. *)

(* Slicing-by-8 (Kounavis & Berry): [tables.(k * 256 + n)] is the
   register after byte [n] and then [k] zero bytes, so eight bytes fold in
   by eight independent lookups instead of a chain of eight dependent
   ones.  Table 0 is the classic byte-at-a-time table, which finishes the
   ragged tail. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let digest_range s pos len =
  let t = tables in
  let crc = ref 0xffffffff and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let j = !i in
    let one =
      !crc
      lxor Char.code (String.unsafe_get s j)
      lxor (Char.code (String.unsafe_get s (j + 1)) lsl 8)
      lxor (Char.code (String.unsafe_get s (j + 2)) lsl 16)
      lxor (Char.code (String.unsafe_get s (j + 3)) lsl 24)
    in
    crc :=
      Array.unsafe_get t (1792 + (one land 0xff))
      lxor Array.unsafe_get t (1536 + ((one lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((one lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (one lsr 24))
      lxor Array.unsafe_get t (768 + Char.code (String.unsafe_get s (j + 4)))
      lxor Array.unsafe_get t (512 + Char.code (String.unsafe_get s (j + 5)))
      lxor Array.unsafe_get t (256 + Char.code (String.unsafe_get s (j + 6)))
      lxor Array.unsafe_get t (Char.code (String.unsafe_get s (j + 7)));
    i := j + 8
  done;
  for i = !i to stop - 1 do
    crc :=
      Array.unsafe_get t
        ((!crc lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let digest ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest";
  digest_range s pos len

(* --- checked lines --- *)

let end_line w =
  let start = Writer.line_start w in
  let crc = digest_range (Writer.view w) start (Writer.length w - start) in
  Writer.char w ' ';
  Writer.hex32 w crc;
  Writer.newline w

let line w l =
  if String.contains l '\n' then invalid_arg "Crc32.tag: embedded newline";
  Writer.string w l;
  end_line w

(* Strip the CRC token from the cursor's line if it is exactly the 8
   lowercase hex digits "%08x" writes and matches the rest: int_of_string
   would also accept "0X", underscores and uppercase, which would let some
   single-character damage in the token itself pass. *)
let untag c =
  let i = Cursor.rindex c ' ' in
  i >= 0
  && Cursor.last c - i = 9
  &&
  let text = Cursor.text c in
  let crc = ref 0 and j = ref (i + 1) in
  while
    !j < i + 9
    &&
    match text.[!j] with
    | '0' .. '9' as ch ->
        crc := (!crc lsl 4) lor (Char.code ch - 48);
        true
    | 'a' .. 'f' as ch ->
        crc := (!crc lsl 4) lor (Char.code ch - 87);
        true
    | _ -> false
  do
    incr j
  done;
  !j = i + 9
  && !crc = digest_range text (Cursor.first c) (i - Cursor.first c)
  && begin
       Cursor.cut c i;
       true
     end

(* --- checked-line files --- *)

let frame header records =
  let w = Writer.create 4096 in
  line w (header ^ " " ^ string_of_int (List.length records));
  List.iter (line w) records;
  Writer.contents w

type damage = { total : int; recovered : int; first_bad_line : int }

(* The header's last field is the record count; what precedes it is the
   caller's. *)
let split_count content =
  let i = Option.value ~default:(-1) (String.rindex_opt content ' ') in
  let count = String.sub content (i + 1) (String.length content - i - 1) in
  match int_of_string_opt count with
  | Some n when n >= 0 && i >= 0 -> Ok (String.sub content 0 i, n)
  | _ -> Error (Printf.sprintf "bad record count %S" count)

let unframe_lines ~record text =
  let c = Cursor.create text in
  ignore (Cursor.next_line c);
  if not (untag c) then Error (1, "damaged or missing header checksum")
  else
    match split_count (Cursor.line c) with
    | Error msg -> Error (1, msg)
    | Ok (header, total) ->
        let recovered = ref 0 in
        let bad = ref None and stop = ref false in
        while !bad = None && (not !stop) && Cursor.next_line c do
          let lineno = Cursor.line_no c in
          if Cursor.is_empty c then
            (* The writer never emits blank lines: this is the trailing
               element after the final newline (end of file) or a
               damaged line.  Either way, stop. *)
            stop := true
          else if !recovered >= total then
            (* More records than the header promised: the tail was
               spliced or duplicated.  The promised prefix is intact;
               everything beyond it is suspect. *)
            bad := Some lineno
          else if untag c && record lineno c then incr recovered
          else bad := Some lineno
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
                } )

let unframe ~record text =
  unframe_lines ~record:(fun lineno c -> record lineno (Cursor.line c)) text

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
