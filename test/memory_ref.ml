(* Reference model for the differential property in test_vm.ml: the
   simulated data memory as it stood before each integer access was split
   into an inlined fast path and an out-of-line checked path, copied
   verbatim.  Its [Fault] is its own exception; the property compares the
   messages. *)

exception Fault of string

type segment = { base : int; bytes : Bytes.t }

type t = {
  segments : segment array;
  mutable last : segment;
      (* the most recently accessed segment: accesses cluster (stack
         frames, a hot table), so the common case skips the scan *)
}

let no_segment = { base = min_int; bytes = Bytes.empty }

let create specs =
  List.iter
    (fun (name, base, size) ->
      if base land 7 <> 0 || size land 7 <> 0 then
        raise
          (Fault (Printf.sprintf "segment %s not 8-byte aligned" name));
      if size <= 0 then
        raise (Fault (Printf.sprintf "segment %s has size %d" name size)))
    specs;
  let sorted =
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) specs
  in
  let rec check_disjoint = function
    | (n1, b1, s1) :: ((n2, b2, _) :: _ as rest) ->
        if b1 + s1 > b2 then
          raise
            (Fault (Printf.sprintf "segments %s and %s overlap" n1 n2));
        check_disjoint rest
    | [ _ ] | [] -> ()
  in
  check_disjoint sorted;
  let segments =
    Array.of_list
      (List.map
         (fun (_, base, size) -> { base; bytes = Bytes.make size '\000' })
         sorted)
  in
  {
    segments;
    last = (if Array.length segments > 0 then segments.(0) else no_segment);
  }

(* Few segments: a linear scan beats building an interval tree.  A
   top-level loop, not a local closure: a switch between segments (the
   stack and a global table, say) then allocates nothing. *)
let rec scan segments addr i =
  if i >= Array.length segments then
    raise (Fault (Printf.sprintf "unmapped address 0x%x" addr))
  else
    let s = segments.(i) in
    if addr >= s.base && addr < s.base + Bytes.length s.bytes then s
    else scan segments addr (i + 1)

let find t addr = scan t.segments addr 0

let check_aligned addr =
  if addr land 7 <> 0 then
    raise (Fault (Printf.sprintf "misaligned word access at 0x%x" addr))

(* The segment holding [addr], preferring the cached one (no scan). *)
let[@inline] locate t addr =
  let s = t.last in
  if addr >= s.base && addr - s.base < Bytes.length s.bytes then s
  else begin
    let s = find t addr in
    t.last <- s;
    s
  end

let read_int t addr =
  check_aligned addr;
  let s = locate t addr in
  Int64.to_int (Bytes.get_int64_le s.bytes (addr - s.base))

let write_int t addr v =
  check_aligned addr;
  let s = locate t addr in
  Bytes.set_int64_le s.bytes (addr - s.base) (Int64.of_int v)

let read_float t addr =
  check_aligned addr;
  let s = locate t addr in
  Int64.float_of_bits (Bytes.get_int64_le s.bytes (addr - s.base))

let write_float t addr v =
  check_aligned addr;
  let s = locate t addr in
  Bytes.set_int64_le s.bytes (addr - s.base) (Int64.bits_of_float v)

(* Float transfers with the register array passed in, so the value moves
   bytes->array (or back) inside one function and is never boxed — a
   float returned or taken across a module boundary would be. *)
let read_float_into t addr (dst : float array) i =
  check_aligned addr;
  let s = locate t addr in
  dst.(i) <- Int64.float_of_bits (Bytes.get_int64_le s.bytes (addr - s.base))

let write_float_from t addr (src : float array) i =
  check_aligned addr;
  let s = locate t addr in
  Bytes.set_int64_le s.bytes (addr - s.base) (Int64.bits_of_float src.(i))
