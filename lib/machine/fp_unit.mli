(** Floating-point scoreboard.

    Each FP register has a ready time; an FP operation issued before its
    operands are ready stalls until they are — the "FP stalls" of PLDI'97
    Table 2.  Latencies come from {!Config}. *)

type t

val create : Config.t -> nregs:int -> t

(** Grow the register file when a procedure uses more FP registers. *)
val ensure : t -> nregs:int -> unit

type op_class = Fp_add | Fp_mul | Fp_div

(** [issue t ~now ~cls ~dst ~s1 ~s2] issues an FP op reading [s1] and
    [s2] at cycle [now]; returns the stall cycles spent waiting for
    not-ready sources.  The destination becomes ready [latency cls] cycles
    after actual issue. *)
val issue :
  t -> now:int -> cls:op_class -> dst:int -> s1:int -> s2:int -> int

(** [use t ~now ~src] stalls a non-FP consumer (store, compare, conversion)
    on a pending FP result; returns stall cycles. *)
val use : t -> now:int -> src:int -> int

(** [define t ~now ~dst] marks [dst] ready at [now] (loads, constants). *)
val define : t -> now:int -> dst:int -> unit

val clear : t -> unit
