(* The FIFO holds each in-flight store's drain-completion cycle.  Drains are
   serialised: a store begins draining only when its predecessor finished,
   and no earlier than its own issue time.  The FIFO is a fixed ring of
   [entries] cells — stores are on the hot path of both engines, so no
   allocation per push. *)
type t = {
  entries : int;
  buf : int array;  (* circular; completion cycles *)
  mutable head : int;  (* index of the oldest entry *)
  mutable len : int;
  mutable last_completion : int;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Store_buffer.create: entries <= 0";
  { entries; buf = Array.make entries 0; head = 0; len = 0; last_completion = 0 }

let[@inline] advance t i = if i + 1 >= t.entries then 0 else i + 1

let drain_completed t ~now =
  (* Drains serialise, so [last_completion] is the newest entry's
     completion cycle: once it has passed, the whole buffer is empty —
     the common case, handled without walking the ring. *)
  if t.last_completion <= now then t.len <- 0
  else
    while t.len > 0 && Array.unsafe_get t.buf t.head <= now do
      t.head <- advance t t.head;
      t.len <- t.len - 1
    done

let push t ~now ~drain =
  if drain <= 0 then invalid_arg "Store_buffer.push: drain <= 0";
  drain_completed t ~now;
  let stall =
    if t.len < t.entries then 0
    else begin
      (* Full: wait for the oldest entry. *)
      let oldest = Array.unsafe_get t.buf t.head in
      t.head <- advance t t.head;
      t.len <- t.len - 1;
      oldest - now
    end
  in
  let issue = now + stall in
  let completion =
    (if issue > t.last_completion then issue else t.last_completion) + drain
  in
  t.last_completion <- completion;
  let tail = t.head + t.len in
  let tail = if tail >= t.entries then tail - t.entries else tail in
  Array.unsafe_set t.buf tail completion;
  t.len <- t.len + 1;
  stall
