(* Sampled instrumentation: the determinism and equivalence contracts.

   The gating schedule is a pure function of (seed, procedure, commit
   ordinal, burst, duty) — nothing about the engine, the host, or how
   many pool workers share the run may leak in.  So: the same seed and
   duty must reproduce a byte-identical shard, on either engine, at any
   --jobs; duty 1.0 must be byte-identical to an exhaustive session
   prepared with the same zero-threshold options; and every shard's
   coverage certificate must account exactly for the commits it kept. *)

module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Engine = Pp_vm.Engine
module Sampling = Pp_vm.Sampling
module Profile = Pp_core.Profile
module Profile_io = Pp_core.Profile_io
module Pool = Pp_run.Pool

(* Branches, a loop, recursion and two procedures hot enough that any
   schedule drift between two runs shows up in the path frequencies. *)
let src =
  {|
int arr[8];
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void work(int x) {
  int i;
  for (i = 0; i < 6; i = i + 1) {
    if (x % 2 == 0) { arr[i % 8] = arr[i % 8] + x; }
    else { arr[i % 8] = arr[i % 8] - x; }
    x = x + 1;
  }
}
void main() {
  int k;
  for (k = 0; k < 8; k = k + 1) { work(k + fib(6)); }
  int j;
  for (j = 0; j < 8; j = j + 1) { print(arr[j]); }
}
|}

let program = lazy (Pp_minic.Compile.program ~name:"sampled_fixture" src)

(* Sampled sessions force array_threshold = 0; exhaustive comparison
   partners must be prepared with the same options, or the shards differ
   by instrumentation cost alone. *)
let zero_opts =
  { Instrument.default_options with Instrument.array_threshold = 0 }

let shard ?sampling ?(engine = Engine.default)
    ?(mode = Instrument.Flow_hw) () =
  let prog = Lazy.force program in
  let session =
    Driver.prepare ~options:zero_opts ~max_instructions:50_000_000 ~engine
      ?sampling ~mode prog
  in
  ignore (Driver.run session);
  Driver.saved_profile session

let shard_string ?sampling ?engine ?mode () =
  Profile_io.to_string (shard ?sampling ?engine ?mode ())

let duties = [| 0.0; 0.125; 0.3; 0.5; 0.75; 1.0 |]

(* {2 duty 1.0 == exhaustive, on both engines} *)

let test_duty_one_exhaustive () =
  List.iter
    (fun engine ->
      let exhaustive = shard_string ~engine () in
      let sampled =
        shard_string ~sampling:(Sampling.create ~duty:1.0 ~seed:3 ()) ~engine
          ()
      in
      Alcotest.(check string)
        (Printf.sprintf "duty 1.0 on %s is byte-identical to exhaustive"
           (Engine.kind_name engine))
        exhaustive sampled;
      (* ...and carries no coverage records: canonical drops the trivial
         sampled = total windows. *)
      Alcotest.(check bool)
        "no coverage records at duty 1.0" true
        ((shard ~sampling:(Sampling.create ~duty:1.0 ~seed:3 ()) ~engine ())
           .Profile_io.coverage
        = []))
    Engine.kinds

(* {2 determinism: same seed + duty -> byte-identical} *)

let prop_reproducible =
  QCheck.Test.make ~name:"same seed and duty replay byte-identically"
    ~count:8
    QCheck.(pair small_nat (int_bound (Array.length duties - 1)))
    (fun (seed, di) ->
      let go () =
        shard_string
          ~sampling:(Sampling.create ~duty:duties.(di) ~seed ())
          ()
      in
      go () = go ())

let prop_engine_agnostic =
  QCheck.Test.make
    ~name:"interpreted and compiled engines sample identically" ~count:6
    QCheck.(pair small_nat (int_bound (Array.length duties - 1)))
    (fun (seed, di) ->
      let go engine =
        shard_string
          ~sampling:(Sampling.create ~duty:duties.(di) ~seed ())
          ~engine ()
      in
      go Engine.Interpreted = go Engine.Compiled)

(* Pool workers fork; the schedule must not notice.  Compute the same
   sampled shard inline and under --jobs 2 and require byte-identity. *)
let test_jobs_independent () =
  let job seed =
    shard_string ~sampling:(Sampling.create ~duty:0.3 ~seed ()) ()
  in
  let inline = List.map job [ 1; 2; 3; 4 ] in
  let forked =
    Pool.map ~jobs:2 job [ 1; 2; 3; 4 ] |> List.map Fixtures.outcome_ok
  in
  List.iter2
    (fun a b ->
      Alcotest.(check (option string))
        "forked worker reproduces the inline shard" (Some a) b)
    inline forked

(* {2 the coverage certificate} *)

(* Every procedure's window must account exactly for what the shard
   kept: sampled = the frequency sum of that procedure's recorded paths,
   and sampled <= total. *)
let prop_coverage_accounts =
  QCheck.Test.make ~name:"coverage windows account for recorded commits"
    ~count:8
    QCheck.(pair small_nat (int_bound (Array.length duties - 1)))
    (fun (seed, di) ->
      let s =
        shard ~sampling:(Sampling.create ~duty:duties.(di) ~seed ()) ()
      in
      let freq_of proc =
        List.fold_left
          (fun acc (name, _, paths) ->
            if name = proc then
              acc
              + List.fold_left
                  (fun a (_, (m : Profile.path_metrics)) ->
                    a + m.Profile.freq)
                  0 paths
            else acc)
          0 s.Profile_io.procs
      in
      List.for_all
        (fun (proc, (sampled, total)) ->
          sampled <= total && sampled = freq_of proc)
        s.Profile_io.coverage)

(* Coverage survives the save/load roundtrip and sums under merge, with
   a missing window defaulting to the shard's own commit count — so a
   sampled shard composes with an exhaustive one. *)
let test_coverage_merge () =
  let sampled =
    shard ~sampling:(Sampling.create ~duty:0.3 ~seed:5 ()) ()
  in
  let exhaustive = shard () in
  let reloaded = Fixtures.read_shard (Profile_io.to_string sampled) in
  Alcotest.(check string) "coverage roundtrips"
    (Profile_io.to_string sampled)
    (Profile_io.to_string reloaded);
  match Profile_io.merge sampled exhaustive with
  | Error d -> Alcotest.failf "merge failed: %s" (Pp_ir.Diag.to_string d)
  | Ok merged ->
      let freq_of (s : Profile_io.saved) proc =
        List.fold_left
          (fun acc (name, _, paths) ->
            if name = proc then
              acc
              + List.fold_left
                  (fun a (_, (m : Profile.path_metrics)) ->
                    a + m.Profile.freq)
                  0 paths
            else acc)
          0 s.Profile_io.procs
      in
      List.iter
        (fun (proc, (sampled_w, total_w)) ->
          let s0, t0 =
            match List.assoc_opt proc sampled.Profile_io.coverage with
            | Some w -> w
            | None -> (freq_of sampled proc, freq_of sampled proc)
          in
          (* The exhaustive shard carries no window; it defaults to its
             own frequency sum on both sides. *)
          let f = freq_of exhaustive proc in
          Alcotest.(check (pair int int))
            (Printf.sprintf "merged window of %s" proc)
            (s0 + f, t0 + f)
            (sampled_w, total_w))
        merged.Profile_io.coverage

(* Sampling needs runtime-dispatched commits; Driver.prepare must force
   the zero array threshold even when options say otherwise. *)
let test_forces_zero_threshold () =
  let prog = Lazy.force program in
  let session =
    Driver.prepare
      ~options:{ Instrument.default_options with Instrument.array_threshold = 64 }
      ~max_instructions:50_000_000
      ~sampling:(Sampling.create ~duty:1.0 ~seed:0 ())
      ~mode:Instrument.Flow_hw prog
  in
  ignore (Driver.run session);
  let with_default_opts = shard ~sampling:(Sampling.create ~duty:1.0 ~seed:0 ()) () in
  Alcotest.(check string) "options' array_threshold is overridden"
    (Profile_io.to_string with_default_opts)
    (Profile_io.to_string (Driver.saved_profile session))

let suite =
  [
    Alcotest.test_case "duty 1.0 == exhaustive (both engines)" `Slow
      test_duty_one_exhaustive;
    Alcotest.test_case "forked workers sample like inline runs" `Slow
      test_jobs_independent;
    Alcotest.test_case "coverage roundtrip and merge law" `Slow
      test_coverage_merge;
    Alcotest.test_case "sampling forces zero array threshold" `Slow
      test_forces_zero_threshold;
    QCheck_alcotest.to_alcotest prop_reproducible;
    QCheck_alcotest.to_alcotest prop_engine_agnostic;
    QCheck_alcotest.to_alcotest prop_coverage_accounts;
  ]
