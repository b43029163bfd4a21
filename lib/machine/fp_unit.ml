type t = {
  config : Config.t;
  mutable ready : int array;  (* per FP register: cycle when ready *)
  mutable hi : int;  (* registers 0..hi-1 may hold non-zero stamps *)
}

type op_class = Fp_add | Fp_mul | Fp_div

let create config ~nregs = { config; ready = Array.make (max nregs 1) 0; hi = 0 }

let ensure t ~nregs =
  if nregs > Array.length t.ready then begin
    let ready = Array.make nregs 0 in
    Array.blit t.ready 0 ready 0 (Array.length t.ready);
    t.ready <- ready
  end

let latency t = function
  | Fp_add -> t.config.Config.fp_add_latency
  | Fp_mul -> t.config.Config.fp_mul_latency
  | Fp_div -> t.config.Config.fp_div_latency

let issue t ~now ~cls ~dst ~s1 ~s2 =
  let r = t.ready in
  let d1 = r.(s1) - now in
  let d2 = r.(s2) - now in
  let d = if d1 > d2 then d1 else d2 in
  let stall = if d > 0 then d else 0 in
  r.(dst) <- now + stall + latency t cls;
  if dst >= t.hi then t.hi <- dst + 1;
  stall

let use t ~now ~src =
  let d = t.ready.(src) - now in
  if d > 0 then d else 0

let define t ~now ~dst =
  t.ready.(dst) <- now;
  if dst >= t.hi then t.hi <- dst + 1

(* Only registers at or above the high-water mark can hold non-zero
   stamps, so the fill stops there — a no-op for integer-only frames. *)
let clear t =
  if t.hi > 0 then begin
    Array.fill t.ready 0 t.hi 0;
    t.hi <- 0
  end
