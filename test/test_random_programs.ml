(* Differential property testing over randomly generated MiniC programs:
   every instrumentation mode must preserve the observable output, and the
   alternative counter strategies must agree on path frequencies.

   The generator emits source text from a bounded grammar, so every program
   type-checks and terminates by construction (loops are counted, recursion
   is depth-bounded through an explicit argument). *)

module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Interp = Pp_vm.Interp
module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Edge_profile = Pp_core.Edge_profile
module Cct = Pp_core.Cct
module Runtime = Pp_vm.Runtime

type gen_state = {
  rng : Random.State.t;
  buf : Buffer.t;
  mutable depth : int;
  mutable uid : int;  (* locals are function-scoped: names must be unique *)
}

let emit st fmt = Printf.ksprintf (Buffer.add_string st.buf) fmt

let pick st xs = List.nth xs (Random.State.int st.rng (List.length xs))

let gen_expr st ~vars =
  (* Small arithmetic over locals, constants, array cells and helper
     calls. *)
  let rec go fuel =
    if fuel = 0 then
      pick st
        [
          (fun () -> emit st "%d" (Random.State.int st.rng 100));
          (fun () -> emit st "%s" (pick st vars));
        ]
        ()
    else
      pick st
        [
          (fun () -> emit st "%d" (Random.State.int st.rng 100));
          (fun () -> emit st "%s" (pick st vars));
          (fun () ->
            emit st "(";
            go (fuel - 1);
            emit st " %s " (pick st [ "+"; "-"; "*" ]);
            go (fuel - 1);
            emit st ")");
          (fun () ->
            (* OCaml-style rem is negative for negative operands: fold
               into range twice so any generated value indexes safely. *)
            emit st "arr[((";
            go (fuel - 1);
            emit st ") %% 64 + 64) %% 64]");
          (fun () ->
            emit st "helper(";
            go (fuel - 1);
            emit st ", %d)" (Random.State.int st.rng 6));
        ]
        ()
  in
  go 2

let gen_cond st ~vars =
  emit st "%s %s " (pick st vars) (pick st [ "<"; ">"; "=="; "!=" ]);
  emit st "%d" (Random.State.int st.rng 50)

(* [vars] are readable; [mut] are assignable.  Loop counters are readable
   only — otherwise a body could reset its own counter and never finish. *)
let rec gen_stmt st ~vars ~mut =
  if st.depth > 3 then gen_assign st ~vars ~mut
  else
    pick st
      [
        (fun () -> gen_assign st ~vars ~mut);
        (fun () -> gen_assign st ~vars ~mut);
        (fun () ->
          (* bounded for loop over a dedicated, uniquely named counter *)
          st.depth <- st.depth + 1;
          st.uid <- st.uid + 1;
          let i = Printf.sprintf "i%d" st.uid in
          emit st "int %s;\nfor (%s = 0; %s < %d; %s = %s + 1) {\n" i i i
            (1 + Random.State.int st.rng 4)
            i i;
          gen_block st ~vars:(i :: vars) ~mut;
          emit st "}\n";
          st.depth <- st.depth - 1);
        (fun () ->
          st.depth <- st.depth + 1;
          emit st "if (";
          gen_cond st ~vars;
          emit st ") {\n";
          gen_block st ~vars ~mut;
          emit st "}";
          if Random.State.bool st.rng then begin
            emit st " else {\n";
            gen_block st ~vars ~mut;
            emit st "}"
          end;
          emit st "\n";
          st.depth <- st.depth - 1);
      ]
      ()

and gen_assign st ~vars ~mut =
  let lhs =
    pick st
      (List.map (fun v -> `Var v) mut
      @ [ `Cell (Random.State.int st.rng 64) ])
  in
  (match lhs with
  | `Var v -> emit st "%s = " v
  | `Cell i -> emit st "arr[%d] = " i);
  gen_expr st ~vars;
  emit st ";\n"

and gen_block st ~vars ~mut =
  let n = 1 + Random.State.int st.rng 3 in
  for _ = 1 to n do
    gen_stmt st ~vars ~mut
  done

let gen_program seed =
  let st =
    { rng = Random.State.make [| seed; 77 |]; buf = Buffer.create 1024;
      depth = 0; uid = 0 }
  in
  emit st "int arr[64];\n";
  emit st
    "int helper(int a, int d) {\n\
    \  if (d <= 0) { return a %% 97; }\n\
    \  return helper(a + d, d - 1) %% 1000;\n\
     }\n";
  emit st "void work(int x, int y) {\n";
  gen_block st ~vars:[ "x"; "y" ] ~mut:[ "x"; "y" ];
  emit st "}\n";
  emit st "void main() {\n  int k;\n";
  emit st "  for (k = 0; k < %d; k = k + 1) { work(k, %d - k); }\n"
    (2 + Random.State.int st.rng 2)
    (Random.State.int st.rng 20);
  emit st "  int j;\n  for (j = 0; j < 64; j = j + 1) { print(arr[j]); }\n";
  emit st "}\n";
  Buffer.contents st.buf

let outputs (r : Interp.result) = r.Interp.output

let prop_modes_transparent =
  QCheck.Test.make ~name:"random programs: all modes preserve output"
    ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = gen_program seed in
      match Pp_minic.Compile.program ~name:"gen" src with
      | exception Pp_minic.Errors.Error (pos, msg) ->
          QCheck.Test.fail_reportf "generator produced invalid MiniC:@.%s@.%d:%d %s"
            src pos.Pp_minic.Ast.line pos.Pp_minic.Ast.col msg
      | prog ->
          let base =
            Driver.run_baseline ~max_instructions:100_000_000 prog
          in
          List.for_all
            (fun mode ->
              let s =
                Driver.prepare ~max_instructions:400_000_000 ~mode prog
              in
              outputs (Driver.run s) = outputs base)
            Instrument.all_modes)

let prop_strategies_agree =
  QCheck.Test.make
    ~name:"random programs: hash/spill/chord strategies agree" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = gen_program seed in
      let prog = Pp_minic.Compile.program ~name:"gen" src in
      let freqs options =
        let s =
          Driver.prepare ?options ~max_instructions:400_000_000
            ~mode:Instrument.Flow_freq prog
        in
        ignore (Driver.run s);
        List.concat_map
          (fun (p : Pp_core.Profile.proc_profile) ->
            List.map
              (fun (sum, m) ->
                (p.Pp_core.Profile.proc, sum, m.Pp_core.Profile.freq))
              p.Pp_core.Profile.paths)
          (Driver.path_profile s).Pp_core.Profile.procs
        |> List.sort compare
      in
      let reference = freqs None in
      List.for_all
        (fun options -> freqs (Some options) = reference)
        [
          { Instrument.default_options with Instrument.array_threshold = 0 };
          { Instrument.default_options with Instrument.spill_threshold = 0 };
          { Instrument.default_options with
            Instrument.optimize_placement = true };
        ])

(* {2 Shard-split-equals-whole}

   The merge laws on real artifacts: split a run's profile (or CCT, or
   chord counters) into k shards, merge them back, and require the whole.
   Together the three properties cover all five instrumentation modes. *)

let compile seed = Pp_minic.Compile.program ~name:"gen" (gen_program seed)

(* [v] as [k] non-negative parts (random cuts; the exact distribution is
   irrelevant, only the sum). *)
let split_int rng k v =
  let parts = Array.make k 0 in
  let rem = ref v in
  for i = 0 to k - 2 do
    let x = Random.State.int rng (!rem + 1) in
    parts.(i) <- x;
    rem := !rem - x
  done;
  parts.(k - 1) <- !rem;
  parts

let prop_shard_profiles =
  QCheck.Test.make
    ~name:"random programs: sharded path profiles merge to the whole"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile seed in
      let rng = Random.State.make [| seed; 31 |] in
      let k = 2 + Random.State.int rng 2 in
      List.for_all
        (fun mode ->
          let s = Driver.prepare ~max_instructions:400_000_000 ~mode prog in
          ignore (Driver.run s);
          let whole = Driver.saved_profile s in
          (* Split every accumulator of every path into k parts; shards
             past the first drop paths they saw nothing of. *)
          let tables =
            List.map
              (fun (name, np, paths) ->
                ( name,
                  np,
                  List.map
                    (fun (sum, (m : Profile.path_metrics)) ->
                      ( sum,
                        split_int rng k m.Profile.freq,
                        split_int rng k m.Profile.m0,
                        split_int rng k m.Profile.m1 ))
                    paths ))
              whole.Profile_io.procs
          in
          let shard i =
            {
              whole with
              Profile_io.procs =
                List.map
                  (fun (name, np, paths) ->
                    ( name,
                      np,
                      List.filter_map
                        (fun (sum, fs, m0s, m1s) ->
                          let m =
                            {
                              Profile.freq = fs.(i);
                              m0 = m0s.(i);
                              m1 = m1s.(i);
                            }
                          in
                          if
                            i > 0 && m.Profile.freq = 0 && m.Profile.m0 = 0
                            && m.Profile.m1 = 0
                          then None
                          else Some (sum, m))
                        paths ))
                  tables;
            }
          in
          match Profile_io.merge_all (List.init k shard) with
          | Error _ -> false
          | Ok merged -> merged = Profile_io.canonical whole)
        [ Instrument.Flow_freq; Instrument.Flow_hw; Instrument.Context_flow ])

(* Per-record payload for CCT sharding: metric counters plus the path
   table, as plain immutable data so shapes compare with (=). *)
type pay = { pm : int list; ppt : (int * int) list }

let pay_of (d : Runtime.record_data) =
  {
    pm = Array.to_list d.Runtime.metrics;
    ppt =
      Hashtbl.fold (fun s c acc -> (s, !c) :: acc) d.Runtime.paths []
      |> List.sort compare;
  }

let rec sum_pt a b =
  match (a, b) with
  | [], r | r, [] -> r
  | (ka, va) :: ta, (kb, vb) :: tb ->
      if ka < kb then (ka, va) :: sum_pt ta b
      else if kb < ka then (kb, vb) :: sum_pt a tb
      else (ka, va + vb) :: sum_pt ta tb

let sum_pay a b =
  match (a, b) with
  | Some x, Some y ->
      { pm = List.map2 ( + ) x.pm y.pm; ppt = sum_pt x.ppt y.ppt }
  | Some x, None | None, Some x -> x
  | None, None -> { pm = []; ppt = [] }

(* Rebuild [src] with fresh per-node data and per-edge call counts (the
   graft API reproduces structure exactly, ids in allocation order). *)
let clone ~data ~calls src =
  let t =
    Cct.create
      ~merge_call_sites:(Cct.merged src)
      ~make_data:(fun ~proc:_ ~nsites:_ -> data (Cct.root src))
      ()
  in
  let map = Hashtbl.create 64 in
  Hashtbl.replace map 0 (Cct.root t);
  Cct.iter
    (fun n ->
      match Cct.parent n with
      | None -> ()
      | Some p ->
          let n' =
            Cct.graft_node t
              ~parent:(Hashtbl.find map (Cct.id p))
              ~proc:(Cct.proc n) ~nsites:(Cct.nsites n) ~data:(data n)
          in
          Hashtbl.replace map (Cct.id n) n')
    src;
  Cct.iter
    (fun n ->
      List.iter
        (fun (e : _ Cct.edge) ->
          Cct.graft_edge t
            ~from_:(Hashtbl.find map (Cct.id n))
            ~site:e.Cct.site
            ~target:(Hashtbl.find map (Cct.id e.Cct.target))
            ~is_backedge:e.Cct.is_backedge ~kind:e.Cct.kind ~calls:(calls n e))
        (Cct.edges n))
    src;
  t

type shape =
  | Node of string * pay * (int * bool * int * shape) list
  | Back of string

let rec shape n =
  Node
    ( Cct.proc n,
      Cct.data n,
      List.map
        (fun (e : _ Cct.edge) ->
          ( e.Cct.site,
            e.Cct.is_backedge,
            e.Cct.calls,
            if e.Cct.is_backedge then Back (Cct.proc e.Cct.target)
            else shape e.Cct.target ))
        (Cct.edges n) )

let prop_shard_ccts =
  QCheck.Test.make
    ~name:"random programs: sharded CCTs merge to the whole" ~count:5
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile seed in
      let rng = Random.State.make [| seed; 37 |] in
      let k = 2 + Random.State.int rng 2 in
      List.for_all
        (fun mode ->
          let s = Driver.prepare ~max_instructions:400_000_000 ~mode prog in
          ignore (Driver.run s);
          let cct = Driver.cct s in
          let whole = clone ~data:(fun n -> pay_of (Cct.data n))
              ~calls:(fun _ e -> e.Cct.calls) cct
          in
          (* Consistent k-way splits of every counter, keyed off the
             source tree's node ids and edges. *)
          let node_split = Hashtbl.create 64 in
          Cct.iter
            (fun n ->
              let p = pay_of (Cct.data n) in
              Hashtbl.replace node_split (Cct.id n)
                ( List.map (split_int rng k) p.pm,
                  List.map (fun (s, c) -> (s, split_int rng k c)) p.ppt ))
            cct;
          let edge_split = Hashtbl.create 64 in
          Cct.iter
            (fun n ->
              List.iter
                (fun (e : _ Cct.edge) ->
                  Hashtbl.replace edge_split
                    (Cct.id n, e.Cct.site, Cct.id e.Cct.target)
                    (split_int rng k e.Cct.calls))
                (Cct.edges n))
            cct;
          let shard i =
            clone
              ~data:(fun n ->
                let ms, pts = Hashtbl.find node_split (Cct.id n) in
                {
                  pm = List.map (fun parts -> parts.(i)) ms;
                  ppt = List.map (fun (s, parts) -> (s, parts.(i))) pts;
                })
              ~calls:(fun n e ->
                (Hashtbl.find edge_split
                   (Cct.id n, e.Cct.site, Cct.id e.Cct.target)).(i))
              cct
          in
          let merged =
            List.fold_left
              (Cct.merge ~merge_data:sum_pay)
              (shard 0)
              (List.init (k - 1) (fun i -> shard (i + 1)))
          in
          Cct.check_invariants merged;
          Cct.num_nodes merged = Cct.num_nodes whole
          && shape (Cct.root merged) = shape (Cct.root whole))
        [ Instrument.Context_hw; Instrument.Context_flow ])

let prop_shard_edge_counts =
  QCheck.Test.make
    ~name:"random programs: chord counter merge is linear under reconstruct"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile seed in
      let rng = Random.State.make [| seed; 41 |] in
      let s =
        Driver.prepare ~max_instructions:400_000_000
          ~mode:Instrument.Edge_freq prog
      in
      ignore (Driver.run s);
      List.for_all
        (fun (_, plan, _) ->
          let n = Edge_profile.num_counters plan in
          let vec () =
            Array.init n (fun _ -> Random.State.int rng 20)
          in
          let a = vec () and b = vec () in
          let merged =
            Edge_profile.reconstruct plan
              ~counts:(Array.map2 ( + ) a b)
          in
          let ra = Edge_profile.reconstruct plan ~counts:a
          and rb = Edge_profile.reconstruct plan ~counts:b in
          merged
          = List.map2
              (fun (e, ca) (e', cb) ->
                assert (e = e');
                (e, ca + cb))
              ra rb)
        (Driver.edge_profile s))

(* {2 Engine differential}

   The closure-threaded compiled tier against the reference interpreter,
   over the same random-program space: every observable — trap message,
   full counter set, output, cycles and (for path modes) the serialized
   profile — must be identical.  Half the seeds get a division-by-zero
   injected after main's work loop, and a third run under a tiny budget,
   so the property also covers traps that land inside batched blocks. *)

module Engine = Pp_vm.Engine

(* Plant [print(k / (k - k))] right after main's work loop: [k] is
   main's loop counter, so the quotient traps after real work has
   touched the machine state.  The marker appears exactly once. *)
let inject_div_by_zero src =
  let marker = "  int j;\n" in
  let rec find i =
    if i + String.length marker > String.length src then None
    else if String.sub src i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> src
  | Some i ->
      String.sub src 0 i
      ^ "  print(k / (k - k));\n"
      ^ String.sub src i (String.length src - i)

let observe_engine ~budget ~kind config prog =
  let outcome run vm =
    match run () with
    | r -> ("done", r)
    | exception Interp.Trap m -> (m, Interp.collect_result vm)
  in
  match config with
  | None ->
      let e = Engine.create ~kind ~max_instructions:budget prog in
      let tag, r = outcome (fun () -> Engine.run e) (Engine.vm e) in
      (tag, r, "")
  | Some mode ->
      let s =
        Driver.prepare ~max_instructions:budget ~engine:kind ~mode prog
      in
      let tag, r = outcome (fun () -> Driver.run s) s.Driver.vm in
      let profile =
        match mode with
        | (Instrument.Flow_freq | Instrument.Flow_hw
          | Instrument.Context_flow)
          when tag = "done" ->
            Profile_io.to_string (Driver.saved_profile s)
        | _ -> ""
      in
      (tag, r, profile)

let prop_engines_agree =
  QCheck.Test.make
    ~name:"random programs: compiled tier is byte-identical (incl. traps)"
    ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 53 |] in
      let src = gen_program seed in
      let src = if seed mod 2 = 0 then inject_div_by_zero src else src in
      let prog = Pp_minic.Compile.program ~name:"gen" src in
      let budget =
        (* A third of the runs exhaust the budget mid-program. *)
        match seed mod 3 with
        | 0 -> 2_000 + Random.State.int rng 5_000
        | _ -> 100_000_000
      in
      List.for_all
        (fun config ->
          observe_engine ~budget ~kind:Engine.Interpreted config prog
          = observe_engine ~budget ~kind:Engine.Compiled config prog)
        (None :: List.map Option.some Instrument.all_modes))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_modes_transparent;
    QCheck_alcotest.to_alcotest prop_strategies_agree;
    QCheck_alcotest.to_alcotest prop_shard_profiles;
    QCheck_alcotest.to_alcotest prop_shard_ccts;
    QCheck_alcotest.to_alcotest prop_shard_edge_counts;
    QCheck_alcotest.to_alcotest prop_engines_agree;
  ]
