type t = { mutable buf : Bytes.t; mutable len : int; mutable line : int }

let create n = { buf = Bytes.create (max n 16); len = 0; line = 0 }
let length w = w.len
let contents w = Bytes.sub_string w.buf 0 w.len
let view w = Bytes.unsafe_to_string w.buf
let line_start w = w.line

let grow w k =
  let cap = ref (2 * Bytes.length w.buf) in
  while w.len + k > !cap do
    cap := 2 * !cap
  done;
  let bigger = Bytes.create !cap in
  Bytes.blit w.buf 0 bigger 0 w.len;
  w.buf <- bigger

(* Room for [k] more bytes: one test in the common case, inlined into
   every writer below and its callers. *)
let[@inline] reserve w k = if w.len + k > Bytes.length w.buf then grow w k

let[@inline] char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let string w s =
  let n = String.length s in
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let newline w =
  char w '\n';
  w.line <- w.len

(* Digits are produced from the non-positive [m = -|n|], whose range
   covers [min_int]; they are counted by comparison (an int has at most
   19) and then written right to left. *)
let int w n =
  if n < 0 then char w '-';
  let m = if n < 0 then n else -n in
  let digits = ref 1 and bound = ref (-10) in
  while !digits < 19 && m <= !bound do
    incr digits;
    bound := !bound * 10
  done;
  reserve w !digits;
  let m = ref m in
  for i = w.len + !digits - 1 downto w.len do
    Bytes.unsafe_set w.buf i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  w.len <- w.len + !digits

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let hex32 w n =
  reserve w 8;
  for i = 0 to 7 do
    Bytes.unsafe_set w.buf (w.len + i)
      (hex_digit ((n lsr (28 - (4 * i))) land 15))
  done;
  w.len <- w.len + 8

let escaped w s =
  String.iter
    (fun c ->
      match c with
      | ' ' | '\n' | '\t' | '%' ->
          char w '%';
          char w (hex_digit (Char.code c lsr 4));
          char w (hex_digit (Char.code c land 15))
      | c -> char w c)
    s

let varint w n =
  let n = ref ((n lsl 1) lxor (n asr 62)) in
  while !n lsr 7 <> 0 do
    char w (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  char w (Char.unsafe_chr !n)

let set_u32 w pos n =
  for i = 0 to 3 do
    Bytes.set w.buf (pos + i) (Char.unsafe_chr ((n lsr (8 * i)) land 0xff))
  done

let u32 w n =
  reserve w 4;
  w.len <- w.len + 4;
  set_u32 w (w.len - 4) n
