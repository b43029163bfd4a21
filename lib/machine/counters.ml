type t = {
  totals : int array;  (* per event *)
  mutable pic0_event : Event.t;
  mutable pic1_event : Event.t;
  mutable pic0_base : int;  (* total at last zeroing *)
  mutable pic1_base : int;
}

let create () =
  {
    totals = Array.make Event.count 0;
    pic0_event = Event.Dcache_read_misses;
    pic1_event = Event.Cycles;
    pic0_base = 0;
    pic1_base = 0;
  }

let total t e = t.totals.(Event.to_int e)

let zero_pics t =
  t.pic0_base <- total t t.pic0_event;
  t.pic1_base <- total t t.pic1_event

let select t ~pic0 ~pic1 =
  t.pic0_event <- pic0;
  t.pic1_event <- pic1;
  zero_pics t

let selection t = (t.pic0_event, t.pic1_event)

(* The dense index of an event into [raw_totals], resolved once by
   callers that bump the totals array in place. *)
let ix e = Event.to_int e

let raw_totals t = t.totals

let totals t = List.map (fun e -> (e, total t e)) Event.all

let mask32 = 0xFFFF_FFFF

let read_pic t = function
  | 0 -> (total t t.pic0_event - t.pic0_base) land mask32
  | 1 -> (total t t.pic1_event - t.pic1_base) land mask32
  | k -> invalid_arg (Printf.sprintf "Counters.read_pic: %d" k)

let write_pic t k v =
  let v = v land mask32 in
  match k with
  | 0 -> t.pic0_base <- total t t.pic0_event - v
  | 1 -> t.pic1_base <- total t t.pic1_event - v
  | k -> invalid_arg (Printf.sprintf "Counters.write_pic: %d" k)
