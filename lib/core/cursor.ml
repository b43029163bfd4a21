type t = {
  text : string;
  mutable line_no : int;
  mutable first : int;
  mutable last : int;
  mutable next : int;  (* start of the next line; -1 past the last *)
  mutable fields : int;
  mutable starts : int array;  (* field i is [starts.(i), stops.(i)) *)
  mutable stops : int array;
}

let create text =
  {
    text;
    line_no = 0;
    first = 0;
    last = String.length text;
    next = 0;
    fields = 0;
    starts = Array.make 8 0;
    stops = Array.make 8 0;
  }

let text c = c.text
let line_no c = c.line_no
let first c = c.first
let last c = c.last
let cut c pos = c.last <- pos
let line c = String.sub c.text c.first (c.last - c.first)
let is_empty c = c.first = c.last

let next_line c =
  c.next >= 0
  && begin
       let n = String.length c.text in
       let j = ref c.next in
       while !j < n && String.unsafe_get c.text !j <> '\n' do
         incr j
       done;
       c.first <- c.next;
       c.last <- !j;
       c.next <- (if !j < n then !j + 1 else -1);
       c.line_no <- c.line_no + 1;
       true
     end

let rindex c ch =
  let i = ref (c.last - 1) in
  while !i >= c.first && String.unsafe_get c.text !i <> ch do
    decr i
  done;
  if !i >= c.first then !i else -1

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let trim c =
  while c.first < c.last && is_space c.text.[c.first] do
    c.first <- c.first + 1
  done;
  while c.last > c.first && is_space c.text.[c.last - 1] do
    c.last <- c.last - 1
  done

let push_field c start stop =
  if c.fields = Array.length c.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    c.starts <- grow c.starts;
    c.stops <- grow c.stops
  end;
  c.starts.(c.fields) <- start;
  c.stops.(c.fields) <- stop;
  c.fields <- c.fields + 1

let split c =
  c.fields <- 0;
  let start = ref c.first in
  for i = c.first to c.last - 1 do
    if String.unsafe_get c.text i = ' ' then begin
      push_field c !start i;
      start := i + 1
    end
  done;
  push_field c !start c.last

let fields c = c.fields

let field_is c i s =
  let a = c.starts.(i) in
  let n = String.length s in
  c.stops.(i) - a = n
  &&
  let j = ref 0 in
  while !j < n && String.unsafe_get c.text (a + !j) = String.unsafe_get s !j do
    incr j
  done;
  !j = n

let field c i = String.sub c.text c.starts.(i) (c.stops.(i) - c.starts.(i))

let rest c i =
  if i >= c.fields then ""
  else String.sub c.text c.starts.(i) (c.last - c.starts.(i))

(* A plain [-]decimal of at most 18 digits cannot overflow and reads the
   same under int_of_string; any other field (a sign, a radix prefix,
   underscores, more digits, junk) is int_of_string's to accept or
   refuse. *)
let int c i =
  let a = c.starts.(i) and b = c.stops.(i) in
  let neg = a < b && c.text.[a] = '-' in
  let d0 = if neg then a + 1 else a in
  let acc = ref 0 and j = ref d0 in
  while
    !j < b
    && match String.unsafe_get c.text !j with '0' .. '9' -> true | _ -> false
  do
    acc := (10 * !acc) + (Char.code (String.unsafe_get c.text !j) - 48);
    incr j
  done;
  if !j = b && b > d0 && b - d0 <= 18 then if neg then - !acc else !acc
  else int_of_string (field c i)

let hex = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let unescape_range text a b =
  let out = Bytes.create (b - a) in
  let rec go i n =
    if i >= b then Some (Bytes.sub_string out 0 n)
    else if text.[i] <> '%' then begin
      Bytes.unsafe_set out n text.[i];
      go (i + 1) (n + 1)
    end
    else if i + 2 >= b then None
    else
      let hi = hex text.[i + 1] and lo = hex text.[i + 2] in
      if hi < 0 || lo < 0 then None
      else begin
        Bytes.unsafe_set out n (Char.chr ((hi * 16) + lo));
        go (i + 3) (n + 1)
      end
  in
  go a 0

let unescaped c i = unescape_range c.text c.starts.(i) c.stops.(i)
let unescape s = unescape_range s 0 (String.length s)
