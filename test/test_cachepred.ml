(* Cachepred against a reference: the per-set must state must classify
   every reference exactly as the flat line -> age map of Cachepred_ref
   does, step by step and after joins. *)

module C = Pp_analysis.Cachepred
module R = Cachepred_ref
module Config = Pp_machine.Config
module Model = Pp_machine.Model

(* A target in both vocabularies. *)
type tgt = Line of int | Lines of int list | Frame of int | Tprof | Tframe | Top

type acc = Read of tgt | Read_maybe of tgt | Write of tgt | Havoc

let c_target = function
  | Line l -> C.Line l
  | Lines ls -> C.Lines ls
  | Frame o -> C.Frame o
  | Tprof -> C.Top_prof
  | Tframe -> C.Top_frame
  | Top -> C.Top

let r_target = function
  | Line l -> R.Line l
  | Lines ls -> R.Lines ls
  | Frame o -> R.Frame o
  | Tprof -> R.Top_prof
  | Tframe -> R.Top_frame
  | Top -> R.Top

let c_access = function
  | Read t -> C.Read (c_target t)
  | Read_maybe t -> C.Read_maybe (c_target t)
  | Write t -> C.Write (c_target t)
  | Havoc -> C.Havoc

let r_access = function
  | Read t -> R.Read (r_target t)
  | Read_maybe t -> R.Read_maybe (r_target t)
  | Write t -> R.Write (r_target t)
  | Havoc -> R.Havoc

let same_class c r =
  match (c, r) with
  | C.Hit, R.Hit | C.Miss, R.Miss | C.Unknown, R.Unknown -> true
  | _ -> false

let class_name = function
  | C.Hit -> "hit"
  | C.Miss -> "miss"
  | C.Unknown -> "unknown"

let ref_class_name = function
  | R.Hit -> "hit"
  | R.Miss -> "miss"
  | R.Unknown -> "unknown"

let pp_tgt = function
  | Line l -> Printf.sprintf "line %d" l
  | Lines ls -> "lines " ^ String.concat "," (List.map string_of_int ls)
  | Frame o -> Printf.sprintf "frame %d" o
  | Tprof -> "top-prof"
  | Tframe -> "top-frame"
  | Top -> "top"

let pp_acc = function
  | Read t -> "read " ^ pp_tgt t
  | Read_maybe t -> "read? " ^ pp_tgt t
  | Write t -> "write " ^ pp_tgt t
  | Havoc -> "havoc"

let pp_geom (g : Config.cache_geometry) =
  Printf.sprintf "%dB/%dB/%d-way" g.Config.size_bytes g.Config.line_bytes
    g.Config.associativity

(* 1-, 2- and 4-way; a few sets (lines collide often) and the default
   16 KB / 32 B sizes. *)
let geometries =
  List.concat_map
    (fun associativity ->
      List.map
        (fun (size_bytes, line_bytes) ->
          { Config.size_bytes; line_bytes; associativity })
        [ (4 * 32 * associativity, 32); (2 * 16 * associativity, 16);
          (16 * 1024, 32) ])
    [ 1; 2; 4 ]

(* Lines and frame offsets from a small pool, so that references share
   sets — same line, same set, other set — and frame slots sit less than
   a line apart, whole lines apart, or a full set space apart. *)
let target_gen (g : Config.cache_geometry) =
  let open QCheck.Gen in
  let sets = Model.num_sets g and lb = g.Config.line_bytes in
  let line =
    map2 (fun s k -> (s mod sets) + (k * sets)) (int_bound 2) (int_bound 3)
  in
  let frame =
    map2
      (fun w k -> (w * 8) + (k * sets * lb))
      (int_range (-4) 8) (int_bound 1)
  in
  frequency
    [
      (6, map (fun l -> Line l) line);
      ( 2,
        map
          (fun ls -> Lines (List.sort_uniq compare ls))
          (list_size (int_range 1 3) line) );
      (3, map (fun o -> Frame o) frame);
      (1, return Tprof);
      (1, return Tframe);
      (1, return Top);
    ]

let access_gen g =
  let open QCheck.Gen in
  let t = target_gen g in
  frequency
    [
      (5, map (fun x -> Read x) t);
      (2, map (fun x -> Read_maybe x) t);
      (2, map (fun x -> Write x) t);
      (1, return Havoc);
    ]

type case = {
  geom : Config.cache_geometry;
  cold : bool;
  left : acc list;  (* two prefixes that are joined *)
  right : acc list;
  rest : acc list;  (* walked from the join *)
  probes : tgt list;  (* classified at every step *)
}

let case_gen =
  let open QCheck.Gen in
  oneofl geometries >>= fun geom ->
  let accs = list_size (int_bound 24) (access_gen geom) in
  map2
    (fun cold (left, right, rest, probes) ->
      { geom; cold; left; right; rest; probes })
    bool
    (quad accs accs accs (list_size (int_range 4 10) (target_gen geom)))

let print_case c =
  let accs l = String.concat "; " (List.map pp_acc l) in
  Printf.sprintf "%s cold=%b\nleft: %s\nright: %s\nrest: %s\nprobes: %s"
    (pp_geom c.geom) c.cold (accs c.left) (accs c.right) (accs c.rest)
    (String.concat "; " (List.map pp_tgt c.probes))

(* Both states classify every probe, under every access kind, alike. *)
let agree c ~where cs rs =
  List.iter
    (fun t ->
      List.iter
        (fun a ->
          let x = fst (C.classify_step c.geom cs (c_access a))
          and y = R.classify c.geom rs (r_access a) in
          if not (same_class x y) then
            QCheck.Test.fail_reportf "%s: %s classifies %s, reference %s"
              where (pp_acc a) (class_name x) (ref_class_name y))
        [ Read t; Read_maybe t; Write t ])
    c.probes

let walk c ~where cs rs accs =
  ignore
    (List.fold_left
       (fun (k, cs, rs) a ->
         let cs = C.step c.geom cs (c_access a)
         and rs = R.step c.geom rs (r_access a) in
         agree c
           ~where:(Printf.sprintf "%s, after step %d (%s)" where k (pp_acc a))
           cs rs;
         (k + 1, cs, rs))
       (0, cs, rs) accs)

(* The join of the two prefixes through each domain's own fixpoint
   solver: a diamond 0 -> {1, 2} -> 3 whose arms run [left] and [right]
   and whose join block runs [rest]. *)
let diamond_in c =
  let succs = function 0 -> [ 1; 2 ] | 1 | 2 -> [ 3 ] | _ -> [] in
  let events arr b =
    Array.of_list
      (List.map arr
         (match b with 1 -> c.left | 2 -> c.right | 3 -> c.rest | _ -> []))
  in
  let cs =
    C.solve c.geom ~nblocks:4 ~entry:0 ~succs ~events:(events c_access)
      ~cold:c.cold
  in
  let rs =
    R.solve c.geom ~nblocks:4 ~entry:0 ~succs ~events:(events r_access)
      ~cold:c.cold
  in
  ( cs.C.block_in.(3),
    rs.R.block_in.(3),
    cs.C.block_out.(3),
    rs.R.block_out.(3) )

let prop_matches_reference =
  QCheck.Test.make ~count:400 ~name:"per-set state == flat reference"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let c0 = C.entry ~cold:c.cold and r0 = R.entry ~cold:c.cold in
      agree c ~where:"entry" c0 r0;
      walk c ~where:"left" c0 r0 c.left;
      walk c ~where:"right" c0 r0 c.right;
      let cj, rj, cout, rout = diamond_in c in
      agree c ~where:"join" cj rj;
      agree c ~where:"join block's out-state" cout rout;
      walk c ~where:"after join" cj rj c.rest;
      true)

(* The solver's merge keeps [old] when [C.absorbs old out]; it used to
   build [join old out] and compare it with [old] structurally.  Both
   answers, on pairs of states reached by random walks — one side often
   a join that contains the other. *)
let joined_unchanged old out = C.view (C.join old out) = C.view old

let prop_absorbs_matches_join =
  QCheck.Test.make ~count:400 ~name:"absorbs == join then structural equal"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let run st accs =
        List.fold_left (fun st a -> C.step c.geom st (c_access a)) st accs
      in
      let e = C.entry ~cold:c.cold in
      let a = run e c.left and b = run e c.right in
      let j = C.join a b in
      let after = run j c.rest in
      let states = [ e; a; b; j; after; C.join after a; C.entry ~cold:false ] in
      List.iteri
        (fun i old ->
          List.iteri
            (fun k out ->
              if C.absorbs old out <> joined_unchanged old out then
                QCheck.Test.fail_reportf
                  "state %d absorbs state %d: %b, join then equal: %b" i k
                  (C.absorbs old out) (joined_unchanged old out))
            states)
        states;
      true)

(* [step] reads one exact line through a single lookup of its set; the
   state after it equals the read by separate steps — hit test, ageing
   of the affected sets, insertion, may update — and its classification
   equals that of the same target under the general classifier (which
   [Read_maybe] takes), on states reached by random walks and joins and
   on every line the case names. *)
let prop_fused_read =
  QCheck.Test.make ~count:400 ~name:"fused line read == separate steps"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let run st accs =
        List.fold_left (fun st a -> C.step c.geom st (c_access a)) st accs
      in
      let e = C.entry ~cold:c.cold in
      let a = run e c.left and b = run e c.right in
      let j = C.join a b in
      let states = [ e; a; b; j; run j c.rest; C.entry ~cold:false ] in
      let lines =
        List.concat_map
          (function
            | Read t | Read_maybe t | Write t -> (
                match t with
                | Line l -> [ l ]
                | Lines ls -> ls
                | Frame _ | Tprof | Tframe | Top -> [])
            | Havoc -> [])
          (List.map (fun t -> Read t) c.probes @ c.left @ c.right @ c.rest)
        |> List.sort_uniq Int.compare
      in
      List.iteri
        (fun i s ->
          List.iter
            (fun l ->
              let read = C.Read (C.Line l) in
              let cls, fused = C.classify_step c.geom s read in
              let general =
                fst (C.classify_step c.geom s (C.Read_maybe (C.Line l)))
              in
              if C.view fused <> C.view (C.read c.geom s (C.Line l)) then
                QCheck.Test.fail_reportf "state %d, read line %d: %s" i l
                  "state differs from the separate steps";
              if C.view (C.step c.geom s read) <> C.view fused then
                QCheck.Test.fail_reportf "state %d, read line %d: %s" i l
                  "step differs from classify_step";
              if cls <> general then
                QCheck.Test.fail_reportf
                  "state %d, read line %d: classified %s, general %s" i l
                  (class_name cls) (class_name general))
            lines)
        states;
      true)

(* The solver keeps each block's out-state from its last worklist run
   instead of transferring every block again: for every workload, mode,
   procedure and both caches, each kept out-state equals a fresh transfer
   of the block's final in-state. *)
let test_kept_outs_fresh () =
  let checked = ref 0 in
  List.iter
    (fun (w : Pp_workloads.Workload.t) ->
      let prog = Pp_workloads.Workload.compile w in
      List.iter
        (fun mode ->
          let t = Test_predict.predictor ~mode prog in
          List.iter
            (fun proc ->
              List.iter
                (fun (geom, events, (sol : C.solution)) ->
                  Array.iteri
                    (fun b evs ->
                      let fresh =
                        Array.fold_left (C.step geom) sol.C.block_in.(b) evs
                      in
                      incr checked;
                      if C.view fresh <> C.view sol.C.block_out.(b) then
                        Alcotest.failf
                          "%s/%s %s block %d: kept out-state differs" w.name
                          (Pp_instrument.Instrument.mode_name mode)
                          proc b)
                    events)
                (Pp_analysis.Predict.cache_solutions t proc))
            (Pp_analysis.Predict.procs t))
        Pp_instrument.Instrument.all_modes)
    Pp_workloads.Registry.all;
  Alcotest.(check bool) "blocks checked" true (!checked > 1000)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_absorbs_matches_join;
    QCheck_alcotest.to_alcotest prop_fused_read;
    Alcotest.test_case "kept out-states == fresh transfer, workloads x modes"
      `Slow test_kept_outs_fresh;
  ]
