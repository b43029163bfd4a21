(* Host-speed calibration.

   The hosts this benchmark runs on are shared: their speed drifts by
   tens of percent over minutes, far more than a regression bound.  A
   fixed piece of ordinary OCaml work (build, sort and fold a list into a
   map: it allocates, like the code under test) slows down with the host
   in step with the workloads; a loop over a flat array does not, so it
   would not do.  The runner times this work between items and scales
   every timing to the reference host, on which it takes [reference_s].
   The work never changes, so a change to the code under test still
   moves the scaled times in full. *)

module IM = Map.Make (Int)

let reference_s = 0.002

let loop () =
  let l = List.init 2_000 (fun i -> i * 7919 mod 10007) in
  let m = List.fold_left (fun m x -> IM.add x x m) IM.empty (List.sort compare l) in
  IM.fold (fun k v acc -> acc + k + v) m 0

(* One timing: six loops, each started on an empty minor heap, which
   holds everything a loop allocates.  Nothing is promoted, so the time
   does not depend on the workload's heap. *)
let sample () =
  let total = ref 0.0 in
  for _ = 1 to 6 do
    Gc.minor ();
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (loop ()));
    total := !total +. (Clock.now () -. t0)
  done;
  !total

(* Host speed changes over seconds, while one sample can be off by a few
   percent; a timing is scaled by the median sample taken within
   [window_s] of it. *)
let window_s = 0.5

(* The factor that scales a timing taken over [t0, t1] to the reference
   host, given [(time taken, sample)] pairs that include one taken just
   before [t0] and one just after [t1]. *)
let scale samples t0 t1 =
  let near =
    Array.fold_left
      (fun acc (t, k) ->
        if t >= t0 -. window_s && t <= t1 +. window_s then k :: acc else acc)
      [] samples
  in
  reference_s /. Stats.median near
