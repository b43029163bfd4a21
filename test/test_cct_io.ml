(* CCT persistence: write/reload round trips, dot rendering. *)

module Cct = Pp_core.Cct
module Cct_io = Pp_core.Cct_io
module Ex = Pp_core.Paper_examples

let check = Alcotest.check

let build_sample () =
  let cct =
    Cct.create ~make_data:(fun ~proc:_ ~nsites:_ -> [| 0; 0 |]) ()
  in
  Ex.figure4_trace
    ~enter:(fun proc site ->
      let n = Cct.enter cct ~proc ~nsites:4 ~site ~kind:Cct.Direct in
      (Cct.data n).(0) <- (Cct.data n).(0) + 1;
      (Cct.data n).(1) <- (Cct.data n).(1) + (String.length proc * 10))
    ~exit:(fun () -> Cct.exit cct);
  cct

let structure cct =
  Cct.fold
    (fun acc n ->
      ( Cct.id n,
        Cct.proc n,
        Cct.node_depth n,
        Array.to_list (Cct.data n),
        List.map
          (fun (e : _ Cct.edge) ->
            (e.Cct.site, Cct.id e.Cct.target, e.Cct.is_backedge, e.Cct.calls))
          (Cct.edges n) )
      :: acc)
    [] cct
  |> List.rev

let test_roundtrip () =
  let cct = build_sample () in
  let text = Cct_io.to_string ~codec:Cct_io.metrics_codec cct in
  let cct' = Cct_io.of_string ~codec:Cct_io.metrics_codec text in
  Cct.check_invariants cct';
  Alcotest.(check bool) "identical structure" true
    (structure cct = structure cct');
  (* Serialising the reload gives the same bytes (canonical form). *)
  Alcotest.(check string) "stable fixpoint" text
    (Cct_io.to_string ~codec:Cct_io.metrics_codec cct')

let test_roundtrip_recursive () =
  let cct = Cct.create ~make_data:(fun ~proc:_ ~nsites:_ -> [||]) () in
  Ex.figure5_trace
    ~enter:(fun proc site ->
      ignore (Cct.enter cct ~proc ~nsites:4 ~site ~kind:Cct.Direct))
    ~exit:(fun () -> Cct.exit cct);
  (* Close the remaining frames so the tree is quiescent. *)
  Cct.unwind_to_depth cct 0;
  let text = Cct_io.to_string ~codec:Cct_io.metrics_codec cct in
  let cct' = Cct_io.of_string ~codec:Cct_io.metrics_codec text in
  Cct.check_invariants cct';
  Alcotest.(check bool) "backedge preserved" true
    (structure cct = structure cct')

let test_roundtrip_merged () =
  (* A merged-call-site tree: one collapsed slot per record, so several
     callees share slot 0 — the reload must keep the flag (or later
     enters would index per-site slots that don't exist) and the edge
     order within the shared slot. *)
  let cct =
    Cct.create ~merge_call_sites:true
      ~make_data:(fun ~proc:_ ~nsites:_ -> [| 0; 0 |])
      ()
  in
  List.iter
    (fun (proc, site) ->
      ignore (Cct.enter cct ~proc ~nsites:3 ~site ~kind:Cct.Direct);
      Cct.exit cct)
    [ ("A", 0); ("B", 2); ("C", 1) ];
  let text = Cct_io.to_string ~codec:Cct_io.metrics_codec cct in
  let cct' = Cct_io.of_string ~codec:Cct_io.metrics_codec text in
  Cct.check_invariants cct';
  Alcotest.(check bool) "merged flag survives" true (Cct.merged cct');
  Alcotest.(check bool) "identical structure" true
    (structure cct = structure cct');
  (* The reload accepts further calls through the collapsed slot. *)
  ignore (Cct.enter cct' ~proc:"D" ~nsites:5 ~site:4 ~kind:Cct.Direct)

let test_roundtrip_multi_edge_slot () =
  (* An indirect call site reaching several callees gives one slot a list
     of edges (Figure 7); serialisation must preserve their first-use
     order through repeated round trips. *)
  let cct =
    Cct.create ~make_data:(fun ~proc:_ ~nsites:_ -> [| 0; 0 |]) ()
  in
  let m = Cct.enter cct ~proc:"M" ~nsites:1 ~site:0 ~kind:Cct.Direct in
  ignore m;
  List.iter
    (fun callee ->
      ignore
        (Cct.enter cct ~proc:callee ~nsites:0 ~site:0 ~kind:Cct.Indirect);
      Cct.exit cct)
    [ "f1"; "f2"; "f3"; "f2" ];
  Cct.unwind_to_depth cct 0;
  let text = Cct_io.to_string ~codec:Cct_io.metrics_codec cct in
  let cct' = Cct_io.of_string ~codec:Cct_io.metrics_codec text in
  Cct.check_invariants cct';
  Alcotest.(check bool) "identical structure" true
    (structure cct = structure cct');
  Alcotest.(check string) "stable fixpoint" text
    (Cct_io.to_string ~codec:Cct_io.metrics_codec cct')

let test_file_roundtrip () =
  let cct = build_sample () in
  let path = Filename.temp_file "cct" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cct_io.to_file ~codec:Cct_io.metrics_codec path cct;
      match Cct_io.merge_files [ path ] with
      | Ok cct' ->
          Alcotest.(check bool) "file roundtrip" true
            (structure cct = structure cct')
      | Error _ -> Alcotest.fail "saved CCT did not read back")

(* A payload-free codec. *)
let unit_codec = { Cct_io.encode = (fun () -> ""); decode = (fun _ -> ()) }

let test_escaped_names () =
  let cct = Cct.create ~make_data:(fun ~proc:_ ~nsites:_ -> ()) () in
  ignore
    (Cct.enter cct ~proc:"weird name %1" ~nsites:1 ~site:0 ~kind:Cct.Direct);
  let text = Cct_io.to_string ~codec:unit_codec cct in
  let cct' = Cct_io.of_string ~codec:unit_codec text in
  match Cct.children (Cct.root cct') with
  | [ n ] -> Alcotest.(check string) "name survives" "weird name %1"
               (Cct.proc n)
  | _ -> Alcotest.fail "lost the node"

let test_parse_errors () =
  let bad text =
    match Cct_io.of_string ~codec:unit_codec text with
    | exception Cct_io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected parse error"
  in
  bad "";
  bad "node 0 -1 0 1 root\n";
  bad "cct 1 2 0\nnode 0 -1 0 1 root \nedge 0 0 7 0 0 1\n";
  bad "cct 1 1 0\nnonsense 1 2 3\n"

(* Malformed input raises [Parse_error] at the offending line rather than
   a bare [Failure] from integer or escape decoding. *)
let test_malformed_located () =
  let at line text =
    match Cct_io.of_string ~codec:Cct_io.metrics_codec text with
    | exception Cct_io.Parse_error (l, _) ->
        Alcotest.(check int) (String.escaped text) line l
    | _ -> Alcotest.failf "accepted %S" text
  in
  at 2 "cct 1 1 0\nnode 0 -1 0 1 %zz 1 2\n";
  at 2 "cct 1 1 0\nnode 0 -1 0 1 ab%4 1 2\n";
  at 2 "cct 1 1 0\nnode 0 -1 0 x <root> 1 2\n";
  at 2 "cct 1 1 0\nnode 0 -1 0 1 <root> 1 q\n";
  at 1 "cct 1 x 0\nnode 0 -1 0 1 <root> 1 2\n";
  at 3 "cct 1 1 0\nnode 0 -1 0 1 <root> 1 2\nedge 0 z 0 0 0 1\n";
  Alcotest.(check (option string)) "escape round trip" (Some "a b%c")
    (Cct_io.unescape (Cct_io.escape "a b%c"));
  List.iter
    (fun s ->
      Alcotest.(check (option string)) s None (Cct_io.unescape s))
    [ "%"; "%4"; "%zz"; "%_1"; "x%g0" ]

(* The header's node count is checked: a text cut among the node records
   is rejected at the header line. *)
let test_node_count_checked () =
  let text = Cct_io.to_string ~codec:Cct_io.metrics_codec (build_sample ()) in
  let lines = String.split_on_char '\n' text in
  let nodes =
    List.length (List.filter (fun l -> String.starts_with ~prefix:"node " l) lines)
  in
  let first k = String.concat "\n" (List.filteri (fun i _ -> i < k) lines) in
  match Cct_io.of_string ~codec:Cct_io.metrics_codec (first nodes) with
  | exception Cct_io.Parse_error (l, msg) ->
      Alcotest.(check int) "at the header" 1 l;
      Alcotest.(check string) "message"
        (Printf.sprintf "header declares %d nodes, found %d" nodes (nodes - 1))
        msg
  | _ -> Alcotest.fail "accepted a truncated node list"

let test_dot () =
  let cct = build_sample () in
  let dot = Cct_io.to_dot cct in
  Alcotest.(check bool) "mentions procs" true
    (let has sub =
       let n = String.length dot and m = String.length sub in
       let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
       go 0
     in
     has "digraph cct" && has "\"M\"" && has "\"C\"")

let test_vm_cct_serialises () =
  (* The runtime CCT from an instrumented run survives the round trip with
     its metric payloads. *)
  let prog = Ex.figure1_program () in
  let session =
    Pp_instrument.Driver.prepare
      ~mode:Pp_instrument.Instrument.Context_hw prog
  in
  ignore (Pp_instrument.Driver.run session);
  let cct = Pp_instrument.Driver.cct session in
  let codec =
    {
      Cct_io.encode =
        (fun (d : Pp_vm.Runtime.record_data) ->
          Cct_io.metrics_codec.Cct_io.encode d.Pp_vm.Runtime.metrics);
      decode =
        (fun s ->
          {
            Pp_vm.Runtime.addr = 0;
            metrics = Cct_io.metrics_codec.Cct_io.decode s;
            paths = Hashtbl.create 1;
            ptable_addr = 0;
          });
    }
  in
  let text = Cct_io.to_string ~codec cct in
  let cct' = Cct_io.of_string ~codec text in
  Cct.check_invariants cct';
  Alcotest.(check int) "same records" (Cct.num_nodes cct)
    (Cct.num_nodes cct');
  (* Entry counts preserved. *)
  let entries t =
    Cct.fold
      (fun acc n -> acc + (Cct.data n).Pp_vm.Runtime.metrics.(0))
      0 t
  in
  Alcotest.(check int) "entry counts preserved" (entries cct) (entries cct')

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "roundtrip with recursion" `Quick
      test_roundtrip_recursive;
    Alcotest.test_case "roundtrip with merged call sites" `Quick
      test_roundtrip_merged;
    Alcotest.test_case "roundtrip with a multi-edge slot" `Quick
      test_roundtrip_multi_edge_slot;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "escaped names" `Quick test_escaped_names;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "malformed records are located" `Quick
      test_malformed_located;
    Alcotest.test_case "header node count checked" `Quick
      test_node_count_checked;
    Alcotest.test_case "dot rendering" `Quick test_dot;
    Alcotest.test_case "vm cct serialises" `Quick test_vm_cct_serialises;
  ]
