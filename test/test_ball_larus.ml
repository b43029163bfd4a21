(* Tests of the Ball–Larus path-numbering core, anchored on the paper's
   Figure 1 example plus property tests over random CFGs. *)

open Pp_core
module Cfg = Pp_ir.Cfg
module Digraph = Pp_graph.Digraph

let check = Alcotest.check
let int = Alcotest.int

let build_fig1 () = Ball_larus.build (Cfg.of_proc (Fixtures.figure1_proc ()))

(* Figure 1(b): the six paths and their path sums. *)
let fig1_paths =
  [
    (0, [ 0; 2; 3; 5 ]);          (* ACDF *)
    (1, [ 0; 2; 3; 4; 5 ]);       (* ACDEF *)
    (2, [ 0; 1; 2; 3; 5 ]);       (* ABCDF *)
    (3, [ 0; 1; 2; 3; 4; 5 ]);    (* ABCDEF *)
    (4, [ 0; 1; 3; 5 ]);          (* ABDF *)
    (5, [ 0; 1; 3; 4; 5 ]);       (* ABDEF *)
  ]

let test_fig1_num_paths () =
  let t = build_fig1 () in
  check int "six paths" 6 (Ball_larus.num_paths t)

let test_fig1_decode () =
  let t = build_fig1 () in
  List.iter
    (fun (sum, blocks) ->
      let p = Ball_larus.decode t sum in
      check (Alcotest.list int)
        (Printf.sprintf "path %d blocks" sum)
        blocks p.Ball_larus.blocks;
      (match p.Ball_larus.source with
      | Ball_larus.From_entry -> ()
      | Ball_larus.After_backedge _ -> Alcotest.fail "acyclic: no backedge");
      match p.Ball_larus.sink with
      | Ball_larus.To_exit -> ()
      | Ball_larus.Into_backedge _ -> Alcotest.fail "acyclic: no backedge")
    fig1_paths

let test_fig1_encode () =
  let t = build_fig1 () in
  List.iter
    (fun (sum, blocks) ->
      let p =
        { Ball_larus.source = Ball_larus.From_entry; blocks;
          sink = Ball_larus.To_exit }
      in
      check int (Printf.sprintf "encode %d" sum) sum (Ball_larus.encode t p))
    fig1_paths

(* Figure 1(a)/(c): the published edge values.  Edge (A->B) = 2, (B->D) = 2,
   (D->E) = 1, all others 0. *)
let test_fig1_edge_vals () =
  let t = build_fig1 () in
  let cfg = Ball_larus.cfg t in
  let val_of src dst =
    match Fixtures.edges_between cfg.Cfg.graph src dst with
    | [ e ] -> Ball_larus.edge_val t e
    | _ -> Alcotest.fail "expected exactly one edge"
  in
  check int "A->B" 2 (val_of 0 1);
  check int "A->C" 0 (val_of 0 2);
  check int "B->C" 0 (val_of 1 2);
  check int "B->D" 2 (val_of 1 3);
  check int "D->E" 1 (val_of 3 4);
  check int "D->F" 0 (val_of 3 5);
  check int "E->F" 0 (val_of 4 5)

let test_fig1_np () =
  let t = build_fig1 () in
  (* NP: F=1, E=1, D=2, C=2, B=4, A=6 *)
  List.iter
    (fun (v, expected) ->
      check int (Printf.sprintf "NP(%d)" v) expected (Ball_larus.np t v))
    [ (5, 1); (4, 1); (3, 2); (2, 2); (1, 4); (0, 6) ]

(* The simple loop: ENTRY L0 L1, backedge L2->L1.  Expected paths:
   - L0 L1 L3 EXIT          (skip the loop)
   - L0 L1 L2 (into backedge)
   - L1 L2 (after backedge, into backedge)
   - L1 L3 (after backedge, to exit)
   Total 4 paths, each in its own category of the paper's four. *)
let test_loop_paths () =
  let t = Ball_larus.build (Cfg.of_proc (Fixtures.loop_proc ())) in
  check int "loop backedges" 1 (List.length (Ball_larus.backedges t));
  check int "loop paths" 4 (Ball_larus.num_paths t);
  let cats = Array.make 4 0 in
  for sum = 0 to 3 do
    let p = Ball_larus.decode t sum in
    let cat =
      match (p.Ball_larus.source, p.Ball_larus.sink) with
      | Ball_larus.From_entry, Ball_larus.To_exit -> 0
      | Ball_larus.From_entry, Ball_larus.Into_backedge _ -> 1
      | Ball_larus.After_backedge _, Ball_larus.Into_backedge _ -> 2
      | Ball_larus.After_backedge _, Ball_larus.To_exit -> 3
    in
    cats.(cat) <- cats.(cat) + 1
  done;
  Array.iteri
    (fun i c -> check int (Printf.sprintf "category %d" i) 1 c)
    cats

let test_self_loop () =
  let t = Ball_larus.build (Cfg.of_proc (Fixtures.self_loop_proc ())) in
  check int "self-loop backedges" 1 (List.length (Ball_larus.backedges t));
  (* Paths: L0 L1 L2; L0 L1 into-b; after-b L1 L2; after-b L1 into-b. *)
  check int "self-loop paths" 4 (Ball_larus.num_paths t)

let test_two_backedges () =
  let t = Ball_larus.build (Cfg.of_proc (Fixtures.two_backedges_proc ())) in
  check int "backedges" 2 (List.length (Ball_larus.backedges t));
  (* All sums decode without assertion failure and re-encode. *)
  for sum = 0 to Ball_larus.num_paths t - 1 do
    let p = Ball_larus.decode t sum in
    check int (Printf.sprintf "roundtrip %d" sum) sum (Ball_larus.encode t p)
  done

(* Walk a placement over a decoded path and return the committed value.
   This simulates exactly what instrumented code computes. *)
let committed_sum t placement (path : Ball_larus.path) =
  let cfg = Ball_larus.cfg t in
  let increments = placement.Ball_larus.increments in
  let inc_of e =
    match
      List.find_opt (fun ((e' : Digraph.edge), _) -> e'.id = e.Digraph.id)
        increments
    with
    | Some (_, v) -> v
    | None -> 0
  in
  (* Rebuild the DAG-edge walk: start value depends on the source. *)
  let r = ref 0 in
  (match path.Ball_larus.source with
  | Ball_larus.From_entry ->
      (* The ENTRY edge may itself carry an increment. *)
      let first = List.hd path.Ball_larus.blocks in
      List.iter
        (fun (e : Digraph.edge) ->
          if e.dst = first && Cfg.role cfg e = Cfg.Entry then r := !r + inc_of e)
        (Digraph.out_edges cfg.Cfg.graph cfg.Cfg.entry)
  | Ball_larus.After_backedge b ->
      let op =
        List.find
          (fun (op : Ball_larus.backedge_op) ->
            op.backedge.Digraph.id = b.Digraph.id)
          placement.Ball_larus.backedge_ops
      in
      r := op.Ball_larus.reset_to);
  let rec walk = function
    | [] | [ _ ] -> ()
    | u :: (w :: _ as rest) ->
        (* Take the first CFG edge u->w that is not a backedge. *)
        let e =
          List.find
            (fun (e : Digraph.edge) ->
              not
                (List.exists
                   (fun (b : Digraph.edge) -> b.id = e.id)
                   (Ball_larus.backedges t)))
            (Fixtures.edges_between cfg.Cfg.graph u w)
        in
        r := !r + inc_of e;
        walk rest
  in
  walk path.Ball_larus.blocks;
  match path.Ball_larus.sink with
  | Ball_larus.To_exit ->
      (* Increments on the Return edge are placed in the Ret block, before
         the commit. *)
      let last = List.fold_left (fun _ b -> b) (-1) path.Ball_larus.blocks in
      List.iter
        (fun (e : Digraph.edge) ->
          if e.dst = cfg.Cfg.exit then r := !r + inc_of e)
        (Digraph.out_edges cfg.Cfg.graph last);
      !r
  | Ball_larus.Into_backedge b ->
      let op =
        List.find
          (fun (op : Ball_larus.backedge_op) ->
            op.backedge.Digraph.id = b.Digraph.id)
          placement.Ball_larus.backedge_ops
      in
      !r + op.Ball_larus.end_add

let placement_is_faithful t placement =
  let ok = ref true in
  for sum = 0 to min (Ball_larus.num_paths t) 256 - 1 do
    let p = Ball_larus.decode t sum in
    if committed_sum t placement p <> sum then ok := false
  done;
  !ok

let test_simple_placement_fig1 () =
  let t = build_fig1 () in
  let pl = Ball_larus.simple_placement t in
  Alcotest.(check bool) "faithful" true (placement_is_faithful t pl)

let test_optimized_placement_fig1 () =
  let t = build_fig1 () in
  let pl = Ball_larus.optimized_placement t in
  Alcotest.(check bool) "faithful" true (placement_is_faithful t pl);
  (* Weight the A-C-D-F spine heavily: the optimization must keep those hot
     edges free of increments (they become spanning-tree edges). *)
  let cfg = Ball_larus.cfg t in
  let hot (e : Digraph.edge) =
    match (e.src, e.dst) with
    | 6, 0 (* ENTRY->A *) | 0, 2 | 2, 3 | 3, 5 -> true
    | 5, 7 (* F->EXIT *) -> true
    | _ -> false
  in
  let weights e = if hot e then 100 else 1 in
  let pl = Ball_larus.optimized_placement ~weights t in
  Alcotest.(check bool) "faithful with weights" true
    (placement_is_faithful t pl);
  List.iter
    (fun ((e : Digraph.edge), v) ->
      if hot e && v <> 0 then
        Alcotest.failf "hot edge %d->%d carries increment %d" e.src e.dst v)
    pl.Ball_larus.increments;
  ignore cfg

(* Property tests over random CFGs. *)

let prop_bijection =
  QCheck.Test.make ~name:"path sums decode and re-encode (random DAGs)"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 2 12))
    (fun (seed, n) ->
      let t =
        Ball_larus.build (Cfg.of_proc (Fixtures.random_dag_proc ~seed ~n))
      in
      let np = Ball_larus.num_paths t in
      let stride = max 1 (np / 50) in
      let ok = ref true in
      let sum = ref 0 in
      while !sum < np do
        let p = Ball_larus.decode t !sum in
        if Ball_larus.encode t p <> !sum then ok := false;
        sum := !sum + stride
      done;
      !ok)

let prop_cyclic_roundtrip =
  QCheck.Test.make ~name:"decode/encode on cyclic CFGs" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 2 12))
    (fun (seed, n) ->
      let t =
        Ball_larus.build (Cfg.of_proc (Fixtures.random_cyclic_proc ~seed ~n))
      in
      let np = Ball_larus.num_paths t in
      let stride = max 1 (np / 50) in
      let ok = ref true in
      let sum = ref 0 in
      while !sum < np do
        let p = Ball_larus.decode t !sum in
        if Ball_larus.encode t p <> !sum then ok := false;
        sum := !sum + stride
      done;
      !ok)

let prop_placements_agree =
  QCheck.Test.make
    ~name:"simple and optimized placements commit identical sums" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 10))
    (fun (seed, n) ->
      let t =
        Ball_larus.build (Cfg.of_proc (Fixtures.random_cyclic_proc ~seed ~n))
      in
      placement_is_faithful t (Ball_larus.simple_placement t)
      && placement_is_faithful t (Ball_larus.optimized_placement t))

let prop_distinct_paths =
  QCheck.Test.make ~name:"distinct sums decode to distinct paths" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 2 9))
    (fun (seed, n) ->
      let t =
        Ball_larus.build (Cfg.of_proc (Fixtures.random_cyclic_proc ~seed ~n))
      in
      let np = min (Ball_larus.num_paths t) 128 in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for sum = 0 to np - 1 do
        let p = Ball_larus.decode t sum in
        let key =
          (p.Ball_larus.source, p.Ball_larus.blocks, p.Ball_larus.sink)
        in
        if Hashtbl.mem seen key then ok := false;
        Hashtbl.add seen key ()
      done;
      !ok)

(* Stepping a path through the step tables in path order, block by
   block as the [pp predict] oracle does: [Ok sum], or [Error] with the
   message [encode] gives for the first missing step. *)
let step_through t (p : Ball_larus.path) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go acc = function
    | u :: (w :: _ as rest) ->
        let s = Ball_larus.step t ~src:u ~dst:w in
        if s < 0 then err "no CFG edge L%d -> L%d" u w else go (acc + s) rest
    | [ last ] -> (
        let s = Ball_larus.exit_step t p.sink ~last in
        if s >= 0 then Ok (acc + s)
        else
          match p.sink with
          | Ball_larus.To_exit -> err "L%d does not return" last
          | Ball_larus.Into_backedge b when b.src <> last ->
              err "backedge source L%d does not end the path" b.src
          | Ball_larus.Into_backedge b ->
              err "L%d -> L%d is not a backedge" b.src b.dst)
    | [] -> err "empty path"
  in
  match p.blocks with
  | [] -> err "empty path"
  | first :: _ ->
      let s = Ball_larus.entry_step t p.source first in
      if s < 0 then err "no matching entry step to L%d" first
      else go s p.blocks

let encode_result t p =
  let prefix = "Ball_larus.encode: " in
  match Ball_larus.encode t p with
  | sum -> Ok sum
  | exception Invalid_argument msg
    when String.length msg >= String.length prefix
         && String.sub msg 0 (String.length prefix) = prefix ->
      Error
        (String.sub msg (String.length prefix)
           (String.length msg - String.length prefix))

let random_numbering seed n =
  let proc =
    if seed mod 2 = 0 then Fixtures.random_dag_proc ~seed ~n
    else Fixtures.random_cyclic_proc ~seed ~n
  in
  Ball_larus.build (Cfg.of_proc proc)

let prop_steps_sum_to_decoded =
  QCheck.Test.make ~name:"step tables sum every decoded path to its sum"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 2 10))
    (fun (seed, n) ->
      let t = random_numbering seed n in
      let np = Ball_larus.num_paths t in
      let stride = max 1 (np / 2000) in
      let sum = ref 0 in
      while !sum < np do
        (match step_through t (Ball_larus.decode t !sum) with
        | Ok s when s = !sum -> ()
        | Ok s -> QCheck.Test.fail_reportf "sum %d stepped to %d" !sum s
        | Error msg -> QCheck.Test.fail_reportf "sum %d: %s" !sum msg);
        sum := !sum + stride
      done;
      true)

(* One dropped, swapped or foreign block: the step tables and [encode]
   must reject the same paths, naming the same first missing step. *)
let prop_mutated_paths_fail_like_encode =
  QCheck.Test.make
    ~name:"mutated paths fail in the step tables exactly as in encode"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 2 10))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed; 41 |] in
      let t = random_numbering seed n in
      let nv = Pp_graph.Digraph.num_vertices (Ball_larus.cfg t).graph in
      let np = Ball_larus.num_paths t in
      let rejected = ref 0 in
      for _ = 1 to 40 do
        let p = Ball_larus.decode t (Random.State.int rng np) in
        let blocks = Array.of_list p.blocks in
        let len = Array.length blocks in
        let i = Random.State.int rng len in
        let mutated =
          match Random.State.int rng 3 with
          | 0 -> List.filteri (fun j _ -> j <> i) p.blocks
          | 1 when len >= 2 ->
              let j = if i + 1 < len then i + 1 else i - 1 in
              let b = Array.copy blocks in
              b.(i) <- blocks.(j);
              b.(j) <- blocks.(i);
              Array.to_list b
          | _ ->
              List.mapi
                (fun j l -> if j = i then nv + Random.State.int rng 5 else l)
                p.blocks
        in
        let p = { p with blocks = mutated } in
        let stepped = step_through t p and encoded = encode_result t p in
        if Result.is_error encoded then incr rejected;
        if stepped <> encoded then
          QCheck.Test.fail_reportf "%a: steps %s, encode %s" Ball_larus.pp_path
            p
            (match stepped with Ok s -> string_of_int s | Error m -> m)
            (match encoded with Ok s -> string_of_int s | Error m -> m)
      done;
      !rejected > 0)

(* A chain of k independent diamonds multiplies path counts: 2^k. *)
let diamond_chain k =
  let open Pp_ir in
  let b = Builder.create ~name:(Printf.sprintf "dia%d" k) ~iparams:1
      ~fparams:0 ~returns:Proc.Returns_void in
  (* blocks: for each diamond: head, left, right; plus final ret *)
  let heads = Array.init k (fun _ -> Builder.new_block b) in
  let lefts = Array.init k (fun _ -> Builder.new_block b) in
  let rights = Array.init k (fun _ -> Builder.new_block b) in
  let ret = Builder.new_block b in
  for i = 0 to k - 1 do
    if i > 0 then Builder.switch_to b heads.(i);
    Builder.terminate b (Block.Br (0, lefts.(i), rights.(i)));
    let next = if i = k - 1 then ret else heads.(i + 1) in
    Builder.switch_to b lefts.(i);
    Builder.terminate b (Block.Jmp next);
    Builder.switch_to b rights.(i);
    Builder.terminate b (Block.Jmp next)
  done;
  Builder.switch_to b ret;
  Builder.terminate b (Block.Ret Block.Ret_void);
  Builder.finish b

let test_path_count_formula () =
  List.iter
    (fun k ->
      let t = Ball_larus.build (Cfg.of_proc (diamond_chain k)) in
      check int (Printf.sprintf "2^%d paths" k) (1 lsl k)
        (Ball_larus.num_paths t))
    [ 1; 4; 10; 20 ]

let test_path_count_overflow_guard () =
  (* 2^63 paths cannot be represented in a 63-bit int: the builder must
     refuse rather than silently wrap. *)
  match Ball_larus.build (Cfg.of_proc (diamond_chain 63)) with
  | exception Ball_larus.Unsupported _ -> ()
  | t ->
      Alcotest.failf "expected overflow, got %d paths"
        (Ball_larus.num_paths t)

let test_infinite_loop_still_numbered () =
  (* A block that spins forever never reaches EXIT in the original CFG,
     yet the pseudo-edge transform still numbers it: the spin block reaches
     EXIT through its backedge's pseudo edge, and at run time every
     traversal of the backedge commits a path.  (This is why the paper's
     instrumentation keeps working for non-terminating regions.) *)
  let open Pp_ir in
  let blocks =
    [|
      { Block.label = 0; instrs = []; term = Block.Br (0, 1, 2) };
      { Block.label = 1; instrs = []; term = Block.Jmp 1 };
      { Block.label = 2; instrs = []; term = Block.Ret Block.Ret_void };
    |]
  in
  let p =
    Proc.make ~frame_words:0 ~name:"spin" ~iparams:1 ~fparams:0
      ~returns:Proc.Returns_void ~blocks ~entry:0
  in
  let t = Ball_larus.build (Cfg.of_proc p) in
  check int "one backedge" 1 (List.length (Ball_larus.backedges t));
  (* Paths: L0 L2 exit; L0 L1 into-b; after-b L1 into-b.  The spin block
     appears only on backedge-committed paths. *)
  check int "three paths" 3 (Ball_larus.num_paths t);
  for sum = 0 to 2 do
    let path = Ball_larus.decode t sum in
    if List.mem 1 path.Ball_larus.blocks then
      match path.Ball_larus.sink with
      | Ball_larus.Into_backedge _ -> ()
      | Ball_larus.To_exit ->
          Alcotest.fail "the spin block cannot be on a path to EXIT"
  done

let suite =
  [
    Alcotest.test_case "fig1 has six paths" `Quick test_fig1_num_paths;
    Alcotest.test_case "path count formula (diamond chains)" `Quick
      test_path_count_formula;
    Alcotest.test_case "path count overflow guard" `Quick
      test_path_count_overflow_guard;
    Alcotest.test_case "infinite loops still get numbered" `Quick
      test_infinite_loop_still_numbered;
    Alcotest.test_case "fig1 decode" `Quick test_fig1_decode;
    Alcotest.test_case "fig1 encode" `Quick test_fig1_encode;
    Alcotest.test_case "fig1 edge values" `Quick test_fig1_edge_vals;
    Alcotest.test_case "fig1 NP values" `Quick test_fig1_np;
    Alcotest.test_case "loop path categories" `Quick test_loop_paths;
    Alcotest.test_case "self-loop" `Quick test_self_loop;
    Alcotest.test_case "two backedges roundtrip" `Quick test_two_backedges;
    Alcotest.test_case "simple placement faithful (fig1)" `Quick
      test_simple_placement_fig1;
    Alcotest.test_case "optimized placement faithful (fig1)" `Quick
      test_optimized_placement_fig1;
    QCheck_alcotest.to_alcotest prop_bijection;
    QCheck_alcotest.to_alcotest prop_cyclic_roundtrip;
    QCheck_alcotest.to_alcotest prop_placements_agree;
    QCheck_alcotest.to_alcotest prop_distinct_paths;
    QCheck_alcotest.to_alcotest prop_steps_sum_to_decoded;
    QCheck_alcotest.to_alcotest prop_mutated_paths_fail_like_encode;
  ]
