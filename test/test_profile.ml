(* The Profile container and the paper-example fixtures. *)

module Profile = Pp_core.Profile
module Ball_larus = Pp_core.Ball_larus
module Ex = Pp_core.Paper_examples
module Event = Pp_machine.Event
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument

let check = Alcotest.check

let sample () =
  let numbering =
    Ball_larus.build (Pp_ir.Cfg.of_proc (Ex.figure1_proc ()))
  in
  {
    Profile.pic0 = Event.Dcache_misses;
    pic1 = Event.Instructions;
    procs =
      [
        {
          Profile.proc = "fig1";
          numbering;
          paths =
            [
              (0, { Profile.freq = 5; m0 = 10; m1 = 100 });
              (3, { Profile.freq = 2; m0 = 30; m1 = 50 });
              (5, { Profile.freq = 9; m0 = 1; m1 = 900 });
            ];
        };
      ];
  }

let test_totals () =
  let p = sample () in
  check Alcotest.int "m0" 41 (Profile.total_m0 p);
  check Alcotest.int "m1" 1050 (Profile.total_m1 p)

let test_ranked () =
  let p = sample () in
  let proc = Option.get (Profile.find_proc p "fig1") in
  let order = List.map fst (Profile.ranked_paths proc) in
  check (Alcotest.list Alcotest.int) "by m0 desc" [ 3; 0; 5 ] order;
  Alcotest.(check bool) "missing proc" true
    (Profile.find_proc p "nope" = None)

let test_decode_through_profile () =
  let p = sample () in
  let proc = Option.get (Profile.find_proc p "fig1") in
  let path = Profile.decode proc 3 in
  (* Path 3 = ABCDEF. *)
  check (Alcotest.list Alcotest.int) "blocks" [ 0; 1; 2; 3; 4; 5 ]
    path.Ball_larus.blocks

(* Driving the Figure-1 program through all selector values exercises all
   six paths exactly as the figure enumerates them. *)
let test_figure1_program_covers_all_paths () =
  let prog = Ex.figure1_program () in
  let s = Driver.prepare ~mode:Instrument.Flow_freq prog in
  ignore (Driver.run s);
  let profile = Driver.path_profile s in
  let fig1 = Option.get (Profile.find_proc profile "fig1") in
  check Alcotest.int "six executed paths" 6 (List.length fig1.Profile.paths);
  (* Selectors 0..7 hit the v land 1 / v land 2 / v land 4 combinations:
     sums 0..5 with frequencies 1 or 2 and a total of 8. *)
  let total =
    List.fold_left (fun acc (_, m) -> acc + m.Profile.freq) 0
      fig1.Profile.paths
  in
  check Alcotest.int "eight calls" 8 total;
  List.iter
    (fun (sum, _) ->
      if sum < 0 || sum > 5 then Alcotest.failf "impossible path sum %d" sum)
    fig1.Profile.paths

let suite =
  [
    Alcotest.test_case "totals" `Quick test_totals;
    Alcotest.test_case "ranking and lookup" `Quick test_ranked;
    Alcotest.test_case "decode through profile" `Quick
      test_decode_through_profile;
    Alcotest.test_case "figure-1 program covers all paths" `Quick
      test_figure1_program_covers_all_paths;
  ]
