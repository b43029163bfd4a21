(* Shared CFG and program fixtures for the test suites. *)

open Pp_ir

(* The strict shard reader production uses, [Profile_io.of_file], on
   [text] written to a temporary file. *)
let read_shard text =
  let path = Filename.temp_file "pp_shard" ".pprof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Pp_core.Profile_io.of_file path)

(* [Some v] for a pool task that produced [v]. *)
let outcome_ok = function Pp_run.Pool.Done v -> Some v | _ -> None

(* All edges from [src] to [dst] of [g], in insertion order. *)
let edges_between g src dst =
  List.filter
    (fun (e : Pp_graph.Digraph.edge) -> e.dst = dst)
    (Pp_graph.Digraph.out_edges g src)

(* The CFG of PLDI'97 Figure 1: six A-to-F paths with path sums
   ACDF=0, ACDEF=1, ABCDF=2, ABCDEF=3, ABDF=4, ABDEF=5.
   Block labels: A=0, B=1, C=2, D=3, E=4, F=5.
   Successor order matters: A branches (C, B); D branches (F, E). *)
let figure1_proc () =
  let b = Builder.create ~name:"fig1" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void in
  let a = Builder.new_block b in
  let bb = Builder.new_block b in
  let c = Builder.new_block b in
  let d = Builder.new_block b in
  let e = Builder.new_block b in
  let f = Builder.new_block b in
  assert (a = 0 && bb = 1 && c = 2 && d = 3 && e = 4 && f = 5);
  (* block A is current: the first block created becomes the entry *)
  Builder.terminate b (Block.Br (0, c, bb));
  Builder.switch_to b bb;
  Builder.terminate b (Block.Br (0, c, d));
  Builder.switch_to b c;
  Builder.terminate b (Block.Jmp d);
  Builder.switch_to b d;
  Builder.terminate b (Block.Br (0, f, e));
  Builder.switch_to b e;
  Builder.terminate b (Block.Jmp f);
  Builder.switch_to b f;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

(* A simple loop:
     L0: entry -> L1
     L1: loop head, branches (L2 body, L3 exit)
     L2: body -> L1 (backedge)
     L3: return *)
let loop_proc () =
  let b = Builder.create ~name:"loop" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  assert (l0 = 0);
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l1;
  Builder.terminate b (Block.Br (0, l2, l3));
  Builder.switch_to b l2;
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l3;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

(* A diamond nested in a loop, with a second backedge (continue-style):
     L0 -> L1(head); L1 -> (L2 | L5=ret)
     L2 -> (L3 | L4); L3 -> L1 (backedge); L4 -> L1 (backedge) *)
let two_backedges_proc () =
  let b = Builder.create ~name:"twoback" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  let l4 = Builder.new_block b in
  let l5 = Builder.new_block b in
  assert (l0 = 0);
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l1;
  Builder.terminate b (Block.Br (0, l2, l5));
  Builder.switch_to b l2;
  Builder.terminate b (Block.Br (0, l3, l4));
  Builder.switch_to b l3;
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l4;
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l5;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

(* Self-loop: L0 -> L1; L1 -> (L1 | L2); L2: ret *)
let self_loop_proc () =
  let b = Builder.create ~name:"selfloop" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  assert (l0 = 0);
  Builder.terminate b (Block.Jmp l1);
  Builder.switch_to b l1;
  Builder.terminate b (Block.Br (0, l1, l2));
  Builder.switch_to b l2;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

(* Random DAG procedures for property tests: [n] diamond-ish blocks where
   block i branches to two random later blocks (or returns). Deterministic
   in [seed]. *)
let random_dag_proc ~seed ~n =
  let rng = Random.State.make [| seed |] in
  let b = Builder.create ~name:(Printf.sprintf "dag%d" seed) ~iparams:1
      ~fparams:0 ~returns:Proc.Returns_void in
  let labels = Array.init n (fun _ -> Builder.new_block b) in
  let ret = Builder.new_block b in
  Array.iteri
    (fun i l ->
      if i > 0 then Builder.switch_to b l;
      (* One arm always falls through to the next block so that every block
         stays reachable and reaches the return. *)
      let forward = if i = n - 1 then ret else labels.(i + 1) in
      let other =
        if i = n - 1 then ret
        else begin
          let j = i + 1 + Random.State.int rng (n - i - 1) in
          if Random.State.int rng 4 = 0 then ret else labels.(j)
        end
      in
      (* Avoid parallel edges (other = forward): two CFG edges between the
         same blocks denote distinct paths with identical block lists, which
         would make block-list-based test oracles ambiguous. *)
      match Random.State.int rng 3 with
      | 0 -> Builder.terminate b (Block.Jmp forward)
      | _ when other = forward -> Builder.terminate b (Block.Jmp forward)
      | _ -> Builder.terminate b (Block.Br (0, other, forward)))
    labels;
  Builder.switch_to b ret;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

(* Random reducible-ish cyclic procedure: like [random_dag_proc] but some
   branches target earlier blocks, creating backedges. Every block can still
   reach the return because the fall-through chain i -> i+1 ... is kept as
   one arm. *)
let random_cyclic_proc ~seed ~n =
  let rng = Random.State.make [| seed; 17 |] in
  let b = Builder.create ~name:(Printf.sprintf "cyc%d" seed) ~iparams:1
      ~fparams:0 ~returns:Proc.Returns_void in
  let labels = Array.init n (fun _ -> Builder.new_block b) in
  let ret = Builder.new_block b in
  Array.iteri
    (fun i l ->
      if i > 0 then Builder.switch_to b l;
      let forward = if i = n - 1 then ret else labels.(i + 1) in
      let other =
        if i > 0 && Random.State.int rng 3 = 0 then
          labels.(Random.State.int rng (i + 1)) (* a back target *)
        else if i = n - 1 then ret
        else labels.(i + 1 + Random.State.int rng (n - i - 1))
      in
      if Random.State.int rng 4 = 0 || other = forward then
        Builder.terminate b (Block.Jmp forward)
      else Builder.terminate b (Block.Br (0, other, forward)))
    labels;
  Builder.switch_to b ret;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

(* A MiniC program over both default instrumentation thresholds: [mix]
   has more than 4096 potential paths (13 diamonds, so hash-table commit
   stubs) and uses at least 64 integer registers (so a spilled path
   register); its loop commits on a backedge, and [main] calls it. *)
let thresholds_src =
  {|
int acc;
int mix(int x) {
  int a = 0;
  int i;
  if (x % 2 == 0) { a = a + 1; }
  if (x % 3 == 0) { a = a + 2; }
  if (x % 5 == 0) { a = a + 3; }
  if (x % 7 == 0) { a = a + 4; }
  if (x % 11 == 0) { a = a + 5; }
  if (x % 13 == 0) { a = a + 6; }
  if (x % 17 == 0) { a = a + 7; }
  if (x % 19 == 0) { a = a + 8; }
  if (x % 23 == 0) { a = a + 9; }
  if (x % 29 == 0) { a = a + 10; }
  if (x % 31 == 0) { a = a + 11; }
  if (x % 37 == 0) { a = a + 12; }
  if (x % 41 == 0) { a = a + 13; }
  for (i = 0; i < x % 4; i = i + 1) { a = a + i; }
  return a;
}
void main() {
  int i;
  for (i = 0; i < 400; i = i + 1) { acc = acc + mix(i); }
  print(acc);
}
|}
