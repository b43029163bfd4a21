(* The process pool and the parallel run matrix.

   The determinism contract is the point: a matrix run at --jobs N must
   render byte-for-byte as the serial run, because tasks are measured in
   isolated processes on a deterministic simulator and the report is a
   pure function of the outcome list in task order. *)

module Pool = Pp_run.Pool
module Matrix = Pp_run.Matrix



let test_map_order () =
  let outcomes = Pool.map ~jobs:3 (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.check
    Alcotest.(list (option int))
    "results in input order"
    (List.map (fun x -> Some (x * x)) [ 1; 2; 3; 4; 5; 6; 7 ])
    (List.map Fixtures.outcome_ok outcomes)

let test_crash_isolation () =
  let outcomes =
    Pool.map ~jobs:2
      (fun x -> if x = 2 then failwith "boom" else x)
      [ 1; 2; 3 ]
  in
  match outcomes with
  | [ Pool.Done 1; Pool.Crashed msg; Pool.Done 3 ] ->
      let has_boom =
        let n = String.length msg in
        let rec go i =
          i + 4 <= n && (String.sub msg i 4 = "boom" || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "message names the exception" true has_boom
  | _ ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat "; " (List.map Pool.describe outcomes))

let test_crash_isolation_in_process () =
  (* jobs <= 1 runs in-process; exceptions must still isolate. *)
  let outcomes =
    Pool.map ~jobs:1 (fun x -> if x = 0 then raise Exit else x) [ 0; 5 ]
  in
  match outcomes with
  | [ Pool.Crashed _; Pool.Done 5 ] -> ()
  | _ ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat "; " (List.map Pool.describe outcomes))

(* A crashed task reads as the failure, not as the OCaml path of the
   exception that carried it, in a forked worker and in process alike. *)
let test_crash_messages () =
  let task = function
    | 0 -> raise Pp_core.Crc32.Killed_mid_write
    | _ -> failwith "injected crash"
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "footers at --jobs %d" jobs)
        [ "crashed: killed mid-write"; "crashed: injected crash" ]
        (List.map Pool.describe (Pool.map ~jobs task [ 0; 1 ])))
    [ 1; 2 ]

let test_timeout () =
  let outcomes, _ =
    Pool.map_stats ~jobs:2 ~timeout:0.3
      (fun x ->
        if x = 1 then Unix.sleepf 5.0;
        x)
      [ 0; 1 ]
  in
  match outcomes with
  | [ Pool.Done 0; Pool.Timed_out t ] ->
      Alcotest.(check bool) "killed near the deadline" true (t >= 0.3 && t < 4.0)
  | _ ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat "; " (List.map Pool.describe outcomes))

let test_empty_and_singleton () =
  Alcotest.(check int) "empty" 0 (List.length (Pool.map ~jobs:4 (fun x -> x) []));
  match Pool.map ~jobs:4 (fun x -> x + 1) [ 41 ] with
  | [ Pool.Done 42 ] -> ()
  | o ->
      Alcotest.failf "unexpected: %s"
        (String.concat "; " (List.map Pool.describe o))

(* The golden check, on a reduced matrix (the two cheapest workloads,
   every configuration): the parallel report must be byte-identical to
   the serial one. *)
let test_golden_parallel_report () =
  let tasks = Matrix.tasks ~workloads:[ "li_like"; "m88k_like" ] () in
  let serial = fst (Matrix.run_footer ~jobs:1 tasks) in
  let parallel = fst (Matrix.run_footer ~jobs:4 tasks) in
  Alcotest.(check bool) "no shard failed" true (Matrix.failures parallel = []);
  Alcotest.(check string) "jobs 4 report byte-identical to serial"
    (Matrix.report serial) (Matrix.report parallel)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "crash isolation (forked)" `Quick test_crash_isolation;
    Alcotest.test_case "crash isolation (in-process)" `Quick
      test_crash_isolation_in_process;
    Alcotest.test_case "crash messages name the failure" `Quick
      test_crash_messages;
    Alcotest.test_case "timeout kills the shard" `Quick test_timeout;
    Alcotest.test_case "empty and singleton inputs" `Quick
      test_empty_and_singleton;
    Alcotest.test_case "parallel report is byte-identical" `Slow
      test_golden_parallel_report;
  ]
