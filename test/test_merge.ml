(* Merge laws for profiles and CCTs, the Profile_io shard format, and
   mutation coverage: seeded merge defects must be caught by the laws.

   The profiles come from real instrumented runs of a small fixture, so
   the numberings, path sums and metric values are genuine; the QCheck
   properties then synthesise random path tables over those numberings. *)

module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Crc32 = Pp_core.Crc32
module Ball_larus = Pp_core.Ball_larus
module Cct = Pp_core.Cct
module Cct_io = Pp_core.Cct_io
module Event = Pp_machine.Event
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Diag = Pp_ir.Diag



(* Branches, a loop and recursion: every path-table shape merge must
   handle. *)
let src =
  {|
int arr[8];
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void work(int x) {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    if (x % 2 == 0) { arr[i % 8] = arr[i % 8] + x; }
    else { arr[i % 8] = arr[i % 8] - x; }
    x = x + 1;
  }
}
void main() {
  int k;
  for (k = 0; k < 6; k = k + 1) { work(k + fib(5)); }
  int j;
  for (j = 0; j < 8; j = j + 1) { print(arr[j]); }
}
|}

let program = lazy (Pp_minic.Compile.program ~name:"merge_fixture" src)

let profile_in mode =
  let s =
    Driver.prepare ~max_instructions:50_000_000 ~mode (Lazy.force program)
  in
  ignore (Driver.run s);
  Driver.path_profile s

let fixture = lazy (profile_in Instrument.Flow_hw)

(* {2 Profile_io.merge laws}

   The merge [pp merge], [pp serve] and checkpoints sum shards with.
   Random canonical shards share one header and the fixture's genuine
   procedure names and path counts; each carries random path tables,
   [feasible] annotations, sampled [coverage] windows (sampled = the
   shard's recorded commits for the procedure, as a sampled run writes
   them) and procedures that appear only in annotations, with no path
   records.  Shards compare through their serialised text. *)

let saved_fixture () =
  let p = Lazy.force fixture in
  Profile_io.of_profile
    ~program_hash:(Profile_io.program_hash (Lazy.force program))
    ~mode:(Instrument.mode_name Instrument.Flow_hw)
    p

(* The commits a shard recorded for procedure [name]: its frequency sum. *)
let commits procs name =
  match List.find_opt (fun (n, _, _) -> n = name) procs with
  | Some (_, _, paths) ->
      List.fold_left (fun acc (_, m) -> acc + m.Profile.freq) 0 paths
  | None -> 0

let gen_shard st =
  let base = saved_fixture () in
  let pick () = Random.State.int st 3 = 0 in
  let procs =
    List.filter_map
      (fun (name, np, _) ->
        if Random.State.int st 4 = 0 then None
        else
          let sums =
            List.init (1 + Random.State.int st 6) (fun _ ->
                Random.State.int st np)
            |> List.sort_uniq compare
          in
          let metric () = Random.State.int st 100 in
          Some
            ( name,
              np,
              List.map
                (fun s ->
                  ( s,
                    { Profile.freq = 1 + metric (); m0 = metric (); m1 = metric () }
                  ))
                sums ))
      base.Profile_io.procs
  in
  let names = List.map (fun (n, _, _) -> n) base.Profile_io.procs in
  Profile_io.canonical
    {
      base with
      Profile_io.procs;
      (* A procedure's feasible count is fixed, so shards agree on it. *)
      feasible =
        List.filter_map
          (fun n -> if pick () then Some (n, String.length n) else None)
          names;
      coverage =
        List.filter_map
          (fun n ->
            if pick () then
              let c = commits procs n in
              Some (n, (c, c + 1 + Random.State.int st 50))
            else None)
          names;
    }

let merged a b =
  match Profile_io.merge a b with
  | Ok m -> m
  | Error d -> QCheck.Test.fail_reportf "merge refused: %s" (Diag.to_string d)

let text = Profile_io.to_string

let add3 (a, b, c) (d, e, f) = (a + d, b + e, c + f)

let prop_merge_commutes =
  QCheck.Test.make ~name:"profile merge commutes" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let st = Random.State.make [| s1; s2; 11 |] in
      let a = gen_shard st and b = gen_shard st in
      text (merged a b) = text (merged b a))

let prop_merge_assoc =
  QCheck.Test.make ~name:"profile merge associates" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let st = Random.State.make [| s1; s2; 13 |] in
      let a = gen_shard st and b = gen_shard st and c = gen_shard st in
      text (merged (merged a b) c) = text (merged a (merged b c)))

let prop_merge_identity =
  QCheck.Test.make ~name:"empty profile is the merge identity" ~count:50
    QCheck.small_nat
    (fun seed ->
      let st = Random.State.make [| seed; 17 |] in
      let a = gen_shard st in
      let e = { a with Profile_io.procs = []; feasible = []; coverage = [] } in
      text (merged a e) = text a && text (merged e a) = text a)

let prop_merge_conserves =
  QCheck.Test.make
    ~name:"merge conserves frequencies and counter totals" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let st = Random.State.make [| s1; s2; 19 |] in
      let a = gen_shard st and b = gen_shard st in
      let m = merged a b in
      (* A shard without a window for a procedure ran it exhaustively. *)
      let window s n =
        match List.assoc_opt n s.Profile_io.coverage with
        | Some w -> w
        | None ->
            let c = commits s.Profile_io.procs n in
            (c, c)
      in
      let covered =
        List.sort_uniq compare
          (List.map fst (a.Profile_io.coverage @ b.Profile_io.coverage))
      in
      Profile_io.totals m = add3 (Profile_io.totals a) (Profile_io.totals b)
      && List.map fst m.Profile_io.coverage = covered
      && List.for_all
           (fun n ->
             let sa, ta = window a n and sb, tb = window b n in
             List.assoc n m.Profile_io.coverage = (sa + sb, ta + tb))
           covered)

(* Summing a real run's shard with itself doubles every accumulator. *)
let test_merge_real_run () =
  let s = saved_fixture () in
  let m = merged s s in
  Alcotest.(check bool) "same paths, doubled" true
    (m.Profile_io.procs
    = List.map
        (fun (name, np, paths) ->
          ( name,
            np,
            List.map
              (fun (sum, (pm : Profile.path_metrics)) ->
                ( sum,
                  { Profile.freq = 2 * pm.freq; m0 = 2 * pm.m0; m1 = 2 * pm.m1 }
                ))
              paths ))
        s.Profile_io.procs)

(* {2 Profile_io: the on-disk shard format} *)

let test_io_roundtrip () =
  let s = saved_fixture () in
  let s' = Fixtures.read_shard (Profile_io.to_string s) in
  Alcotest.(check bool) "string roundtrip" true (s' = Profile_io.canonical s);
  let path = Filename.temp_file "profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile_io.to_file path s;
      Alcotest.(check bool) "file roundtrip" true
        (Profile_io.of_file path = Profile_io.canonical s))

let test_io_totals () =
  let p = Lazy.force fixture in
  Alcotest.(check bool) "totals survive the strip" true
    (Profile_io.totals (saved_fixture ())
    = ( List.fold_left
          (fun acc (pp : Profile.proc_profile) ->
            List.fold_left (fun acc (_, m) -> acc + m.Profile.freq) acc
              pp.Profile.paths)
          0 p.Profile.procs,
        Profile.total_m0 p,
        Profile.total_m1 p ))

let test_io_merge_self () =
  let s = saved_fixture () in
  match Profile_io.merge s s with
  | Error d -> Alcotest.failf "unexpected: %s" (Diag.to_string d)
  | Ok m ->
      let f, m0, m1 = Profile_io.totals s in
      Alcotest.(check bool) "doubled" true (Profile_io.totals m = (2 * f, 2 * m0, 2 * m1))

let header_rejects what forge =
  let s = saved_fixture () in
  match Profile_io.merge s (forge s) with
  | Ok _ -> Alcotest.failf "merge accepted a %s mismatch" what
  | Error d ->
      Alcotest.(check string) (what ^ " diag at header") "<header>" d.Diag.loc.Diag.proc

let test_io_merge_hash_mismatch () =
  header_rejects "program hash" (fun s ->
      { s with Profile_io.program_hash = "deadbeef" })

let test_io_merge_mode_mismatch () =
  header_rejects "mode" (fun s -> { s with Profile_io.mode = "edge" })

let test_io_merge_pic_mismatch () =
  header_rejects "PIC" (fun s ->
      { s with Profile_io.pic0 = Event.Cycles })

let test_io_merge_npaths_mismatch () =
  let s = saved_fixture () in
  let victim, _, _ = List.hd s.Profile_io.procs in
  let forged =
    {
      s with
      Profile_io.procs =
        List.map
          (fun (name, np, paths) ->
            (name, (if name = victim then np + 1 else np), paths))
          s.Profile_io.procs;
    }
  in
  match Profile_io.merge s forged with
  | Ok _ -> Alcotest.fail "merge accepted a path-count mismatch"
  | Error d -> Alcotest.(check string) "diag names the procedure" victim d.Diag.loc.Diag.proc

let test_io_parse_errors () =
  let bad text =
    match Fixtures.read_shard text with
    | exception Profile_io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected parse error"
  in
  bad "";
  bad "nonsense\n";
  bad "profile 2 h flow+hw dcache_misses instructions\n";
  bad (Crc32.frame "profile 2 h flow+hw dc_miss insts" [ "path 0 1 2 3" ]);
  bad (Crc32.frame "profile 2 h flow+hw dc_miss insts" [ "proc f" ])

(* A bad %-escape in a name is a located parse error, in the header and
   in a record whose checksum holds (not reported as damage). *)
let test_io_bad_escape () =
  let at line text =
    match Fixtures.read_shard text with
    | exception Profile_io.Parse_error (l, msg) ->
        Alcotest.(check int) (String.escaped text) line l;
        Alcotest.(check bool) msg true
          (String.starts_with ~prefix:"bad escape" msg)
    | _ -> Alcotest.failf "accepted %S" text
  in
  at 2 (Crc32.frame "profile 2 h flow-hw dc_miss insts" [ "proc %zz 3" ]);
  at 2 (Crc32.frame "profile 2 h flow-hw dc_miss insts" [ "feasible a%4 3" ]);
  at 1 (Crc32.frame "profile 2 h flow%zz dc_miss insts" []);
  at 1 (Crc32.frame "profile 2 h flow-hw dc%g1 insts" [])

(* {2 Cct.merge} *)

type ev = E of string * int | X

let build ?(merge_call_sites = false) evs =
  let t =
    Cct.create ~merge_call_sites
      ~make_data:(fun ~proc:_ ~nsites:_ -> Array.make 2 0)
      ()
  in
  List.iter
    (function
      | E (proc, site) ->
          let n = Cct.enter t ~proc ~nsites:3 ~site ~kind:Cct.Direct in
          (Cct.data n).(0) <- (Cct.data n).(0) + 1
      | X -> Cct.exit t)
    evs;
  Cct.unwind_to_depth t 0;
  t

(* Id-independent shape: merge reassigns node ids, so trees are compared
   structurally, with backedge targets named by procedure (unique along
   any ancestor chain). *)
type shape =
  | Node of string * int list * (int * bool * int * shape) list
  | Back of string

let rec shape n =
  Node
    ( Cct.proc n,
      Array.to_list (Cct.data n),
      List.map
        (fun (e : _ Cct.edge) ->
          ( e.Cct.site,
            e.Cct.is_backedge,
            e.Cct.calls,
            if e.Cct.is_backedge then Back (Cct.proc e.Cct.target)
            else shape e.Cct.target ))
        (Cct.edges n) )

let rec shape_sorted = function
  | Back _ as b -> b
  | Node (p, d, es) ->
      Node
        ( p,
          d,
          List.map (fun (s, b, c, t) -> (s, b, c, shape_sorted t)) es
          |> List.sort compare )

let sum_data a b =
  match (a, b) with
  | Some x, Some y -> Array.init (Array.length x) (fun i -> x.(i) + y.(i))
  | Some x, None | None, Some x -> Array.copy x
  | None, None -> Array.make 2 0

let merge2 a b = Cct.merge ~merge_data:sum_data a b

let test_cct_merge_is_serial_union () =
  (* Two shards that partition one serial event stream merge into the
     tree the serial run builds. *)
  let sa = [ E ("M", 0); E ("A", 1); X; X ]
  and sb = [ E ("M", 0); E ("B", 2); X; E ("A", 1); X; X ] in
  let merged = merge2 (build sa) (build sb) in
  Cct.check_invariants merged;
  Alcotest.(check bool) "equals the serial tree" true
    (shape (Cct.root merged) = shape (Cct.root (build (sa @ sb))))

let test_cct_merge_commutes () =
  let a = build [ E ("M", 0); E ("A", 1); X; X ]
  and b = build [ E ("M", 0); E ("B", 2); X; E ("A", 1); X; X ] in
  (* Within a slot the edge order follows the first operand, so
     commutativity holds up to per-slot reordering. *)
  Alcotest.(check bool) "same shape modulo slot order" true
    (shape_sorted (shape (Cct.root (merge2 a b)))
    = shape_sorted (shape (Cct.root (merge2 b a))))

let test_cct_merge_assoc () =
  let a = build [ E ("M", 0); E ("A", 1); X; X ]
  and b = build [ E ("M", 0); E ("B", 2); X; X ]
  and c = build [ E ("M", 0); E ("A", 1); E ("C", 0); X; X; X ] in
  Alcotest.(check bool) "associates" true
    (shape (Cct.root (merge2 (merge2 a b) c))
    = shape (Cct.root (merge2 a (merge2 b c))))

let test_cct_merge_identity () =
  let a = build [ E ("M", 0); E ("A", 1); X; E ("B", 2); X; X ] in
  let sa = shape (Cct.root a) in
  Alcotest.(check bool) "right identity" true
    (shape (Cct.root (merge2 a (build []))) = sa);
  Alcotest.(check bool) "left identity" true
    (shape (Cct.root (merge2 (build []) a)) = sa)

let test_cct_merge_backedges () =
  let sa = [ E ("M", 0); E ("R", 1); E ("R", 1); X; X; X ]
  and sb = [ E ("M", 0); E ("R", 1); E ("R", 1); E ("R", 1); X; X; X; X ] in
  let merged = merge2 (build sa) (build sb) in
  Cct.check_invariants merged;
  Alcotest.(check bool) "backedge calls sum to the serial count" true
    (shape (Cct.root merged) = shape (Cct.root (build (sa @ sb))))

let test_cct_merge_call_sites () =
  let mk evs = build ~merge_call_sites:true evs in
  let sa = [ E ("M", 0); E ("A", 1); X; X ]
  and sb = [ E ("M", 0); E ("B", 2); X; X ] in
  let merged = merge2 (mk sa) (mk sb) in
  Alcotest.(check bool) "stays merged" true (Cct.merged merged);
  Cct.check_invariants merged;
  Alcotest.(check bool) "collapsed slots unify" true
    (shape (Cct.root merged) = shape (Cct.root (mk (sa @ sb))))

let test_cct_merge_flag_mismatch () =
  let a = build [ E ("M", 0); X ]
  and b = build ~merge_call_sites:true [ E ("M", 0); X ] in
  match merge2 a b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on merged-flag mismatch"

let test_cct_merge_no_aliasing () =
  (* A record only one shard reached is copied, never aliased. *)
  let a = build [ E ("M", 0); X ]
  and b = build [ E ("M", 0); E ("B", 2); X; X ] in
  let merged = merge2 a b in
  let find t p =
    Cct.fold (fun acc n -> if Cct.proc n = p then Some n else acc) None t
  in
  let mb = Option.get (find merged "B") in
  (Cct.data mb).(0) <- 999;
  Alcotest.(check int) "shard data untouched" 1
    (Cct.data (Option.get (find b "B"))).(0)

(* {2 Mutation coverage: seeded merge defects}

   In the spirit of Test_mutation: each mutant is a plausibly-buggy merge
   — a dropped accumulator sum, swapped call-site keys, a lost recursion
   backedge — and the law suite must reject every one. *)

(* Defect 1: on paths both shards executed, the first shard's accumulators
   win and the second's are silently dropped. *)
let mutant_drop_sum a b =
  let m = merged a b in
  {
    m with
    Profile_io.procs =
      List.map
        (fun (name, np, paths) ->
          match List.find_opt (fun (n, _, _) -> n = name) a.Profile_io.procs with
          | None -> (name, np, paths)
          | Some (_, _, pa) ->
              ( name,
                np,
                List.map
                  (fun (s, mm) ->
                    match List.assoc_opt s pa with
                    | Some ma -> (s, ma)
                    | None -> (s, mm))
                  paths ))
        m.Profile_io.procs;
  }

let profile_laws_hold merge a b =
  text (merge a b) = text (merge b a)
  && Profile_io.totals (merge a b)
     = add3 (Profile_io.totals a) (Profile_io.totals b)

let test_mutant_dropped_sum () =
  let s = saved_fixture () in
  Alcotest.(check bool) "correct merge passes the laws" true
    (profile_laws_hold merged s s);
  Alcotest.(check bool) "dropped accumulator sum is caught" false
    (profile_laws_hold mutant_drop_sum s s)

(* Text-level corruption of a serialised CCT shard, as a buggy disk/merge
   pipeline would produce it. *)
let transform_edges f text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "edge"; from_; site; target; back; kind; calls ] ->
             f ~from_ ~site ~target ~back ~kind ~calls
         | _ -> Some line)
  |> String.concat "\n"

let reload text = Cct_io.of_string ~codec:Cct_io.metrics_codec text

let store cct = Cct_io.to_string ~codec:Cct_io.metrics_codec cct

(* Defect 2: the shard's call-site keys are rotated, attributing calls to
   the wrong slot. *)
let swap_sites text =
  transform_edges
    (fun ~from_ ~site ~target ~back ~kind ~calls ->
      let site =
        if from_ = "0" then site
        else string_of_int ((int_of_string site + 1) mod 3)
      in
      Some (String.concat " " [ "edge"; from_; site; target; back; kind; calls ]))
    text

(* Defect 3: recursion backedges are dropped on the way to disk. *)
let drop_backedges text =
  transform_edges
    (fun ~from_ ~site ~target ~back ~kind ~calls ->
      if back = "1" then None
      else
        Some
          (String.concat " " [ "edge"; from_; site; target; back; kind; calls ]))
    text

let cct_shard_law corrupt sa sb =
  (* shard-split-equals-whole, with shard b passing through the (possibly
     corrupting) serialisation pipeline *)
  let b = reload (corrupt (store (build sb))) in
  shape (Cct.root (merge2 (build sa) b))
  = shape (Cct.root (build (sa @ sb)))

let test_mutant_swapped_sites () =
  let sa = [ E ("M", 0); E ("A", 1); X; X ]
  and sb = [ E ("M", 0); E ("A", 1); X; E ("B", 2); X; X ] in
  Alcotest.(check bool) "clean pipeline passes" true (cct_shard_law Fun.id sa sb);
  Alcotest.(check bool) "swapped call-site keys are caught" false
    (cct_shard_law swap_sites sa sb)

let test_mutant_lost_backedge () =
  let sa = [ E ("M", 0); E ("R", 1); E ("R", 1); X; X; X ] in
  Alcotest.(check bool) "clean pipeline passes" true (cct_shard_law Fun.id sa sa);
  Alcotest.(check bool) "lost backedge is caught" false
    (cct_shard_law drop_backedges sa sa)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_merge_commutes;
    QCheck_alcotest.to_alcotest prop_merge_assoc;
    QCheck_alcotest.to_alcotest prop_merge_identity;
    QCheck_alcotest.to_alcotest prop_merge_conserves;
    Alcotest.test_case "merge of a real run's profile" `Quick
      test_merge_real_run;
    Alcotest.test_case "saved profile roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "saved profile totals" `Quick test_io_totals;
    Alcotest.test_case "shard merge sums" `Quick test_io_merge_self;
    Alcotest.test_case "hash mismatch diag" `Quick test_io_merge_hash_mismatch;
    Alcotest.test_case "mode mismatch diag" `Quick test_io_merge_mode_mismatch;
    Alcotest.test_case "PIC mismatch diag" `Quick test_io_merge_pic_mismatch;
    Alcotest.test_case "path-count mismatch diag" `Quick
      test_io_merge_npaths_mismatch;
    Alcotest.test_case "profile parse errors" `Quick test_io_parse_errors;
    Alcotest.test_case "bad escape located" `Quick test_io_bad_escape;
    Alcotest.test_case "cct merge = serial union" `Quick
      test_cct_merge_is_serial_union;
    Alcotest.test_case "cct merge commutes" `Quick test_cct_merge_commutes;
    Alcotest.test_case "cct merge associates" `Quick test_cct_merge_assoc;
    Alcotest.test_case "empty cct is the identity" `Quick
      test_cct_merge_identity;
    Alcotest.test_case "cct merge sums backedges" `Quick
      test_cct_merge_backedges;
    Alcotest.test_case "merged-call-site trees unify" `Quick
      test_cct_merge_call_sites;
    Alcotest.test_case "merged-flag mismatch rejected" `Quick
      test_cct_merge_flag_mismatch;
    Alcotest.test_case "merge copies shard data" `Quick
      test_cct_merge_no_aliasing;
    Alcotest.test_case "mutant: dropped accumulator sum" `Quick
      test_mutant_dropped_sum;
    Alcotest.test_case "mutant: swapped call-site keys" `Quick
      test_mutant_swapped_sites;
    Alcotest.test_case "mutant: lost backedge" `Quick test_mutant_lost_backedge;
  ]
