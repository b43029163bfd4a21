(** Store buffer occupancy model.

    Committed stores enter a FIFO of bounded capacity and drain to the cache
    at a fixed rate.  A store issued while the buffer is full stalls the
    pipeline until the oldest entry drains — the "store buffer stalls" of
    PLDI'97 Table 2. *)

type t

val create : entries:int -> t

(** [push t ~now ~drain] issues a store at cycle [now] that will take
    [drain] cycles to leave the buffer; returns the stall cycles incurred
    (0 when a slot is free). *)
val push : t -> now:int -> drain:int -> int
