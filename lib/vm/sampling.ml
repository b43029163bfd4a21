(* The sampled-instrumentation controller (Metz & Lencevicius style):
   instead of recording every path commit, whole bursts of consecutive
   commits are enabled or disabled by a seed-deterministic draw against a
   duty cycle.  The VM consults [decide] once per gateable
   probe; a disabled probe skips its runtime dispatch entirely, so the
   machine model never charges its fetches, loads or stores — the saved
   work is exactly the measured overhead reduction.

   Determinism contract: the decision for the [n]-th commit of procedure
   [p] is a pure function of (seed, p, n / burst, duty).  Tick streams
   are per procedure, so interleavings — different engines, different
   shard orders, different [--jobs] — cannot perturb the schedule. *)

(* splitmix-style mixing, kept local: lib/vm sits below lib/run, so the
   identical Faults.mix cannot be reused without inverting the
   dependency.  Same constants, same 62-bit masking. *)
let mask = (1 lsl 62) - 1

let mix xs =
  let golden = 0x1e3779b97f4a7c15 land mask in
  let z =
    List.fold_left (fun acc x -> (acc + (x land mask) + golden) land mask) 0 xs
  in
  let z = z lxor (z lsr 30) in
  let z = z * 0x3f58476d1ce4e5b9 land mask in
  let z = z lxor (z lsr 27) in
  let z = z * 0x14d049bb133111eb land mask in
  z lxor (z lsr 31)

let unit_float h = float_of_int (h land 0xfffffff) /. float_of_int 0x10000000

type window = { mutable sampled : int; mutable total : int }

type t = {
  seed : int;
  burst : int;
  duty : float;
  ticks : (string, int ref) Hashtbl.t;
  coverage : (string, window) Hashtbl.t;
}

let default_burst = 64

let create ?(burst = default_burst) ?(duty = 1.0) ~seed () =
  if burst <= 0 then invalid_arg "Sampling.create: burst <= 0";
  if duty < 0.0 || duty > 1.0 then
    invalid_arg "Sampling.create: duty outside [0, 1]";
  {
    seed;
    burst;
    duty;
    ticks = Hashtbl.create 32;
    coverage = Hashtbl.create 32;
  }

let seed t = t.seed
let burst t = t.burst

let window_of t proc =
  match Hashtbl.find_opt t.coverage proc with
  | Some w -> w
  | None ->
      let w = { sampled = 0; total = 0 } in
      Hashtbl.replace t.coverage proc w;
      w

(* One probe decision: consumes the procedure's next tick and records it
   in the coverage window.  The draw is per burst window, so consecutive
   commits stay enabled (or disabled) together — countdown bursts rather
   than per-commit coin flips. *)
let decide t ~proc =
  let tick =
    match Hashtbl.find_opt t.ticks proc with
    | Some r ->
        incr r;
        !r - 1
    | None ->
        Hashtbl.replace t.ticks proc (ref 1);
        0
  in
  let on =
    if t.duty >= 1.0 then true
    else if t.duty <= 0.0 then false
    else
      unit_float (mix [ t.seed; Hashtbl.hash proc; tick / t.burst ]) < t.duty
  in
  let w = window_of t proc in
  w.total <- w.total + 1;
  if on then w.sampled <- w.sampled + 1;
  on

let coverage t =
  Hashtbl.fold (fun p w acc -> (p, (w.sampled, w.total)) :: acc) t.coverage []
  |> List.sort compare

let scale ~sampled ~total =
  if sampled <= 0 || total <= sampled then 1.0
  else float_of_int total /. float_of_int sampled
