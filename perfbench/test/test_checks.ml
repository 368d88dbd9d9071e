(* The benchmark's own output checks must catch what they exist to
   catch: planted regularity breaches, a probe expecting the wrong value,
   and an arrival count drawn at the wrong rate. *)

module History = Sbft_spec.History

let write h ~client ~value ~inv ~resp ~ts =
  let id = History.begin_write h ~client ~value ~time:inv in
  History.end_write h ~id ~time:resp ~ts:(Some ts);
  id

let read h ~client ~inv ~resp v =
  let id = History.begin_read h ~client ~time:inv in
  History.end_read h ~id ~time:resp ~outcome:(History.Value v);
  id

let pairs = Alcotest.(list (pair int string))
let named l = List.map (fun (id, k) -> (id, Checks.kind_name k)) l

let test_realtime_planted () =
  let h = History.create () in
  ignore (write h ~client:0 ~value:1 ~inv:0 ~resp:10 ~ts:1);
  let future = read h ~client:1 ~inv:12 ~resp:18 2 in
  ignore (write h ~client:0 ~value:2 ~inv:20 ~resp:30 ~ts:2);
  ignore (read h ~client:2 ~inv:25 ~resp:35 1);
  ignore (read h ~client:2 ~inv:36 ~resp:38 2);
  let stale = read h ~client:1 ~inv:40 ~resp:45 1 in
  let unwritten = read h ~client:2 ~inv:50 ~resp:55 99 in
  let expected = [ (future, "future"); (stale, "stale"); (unwritten, "unwritten") ] in
  Alcotest.check pairs "planted reads" expected (named (Checks.realtime_violations ~after:0 h));
  (* the program's checker condemns the same reads for the same reasons *)
  let program =
    (Sbft_spec.Regularity.check ~ts_prec:( < ) h).violations
    |> List.filter_map (fun (v : Sbft_spec.Regularity.violation) ->
           match v.kind with
           | `Stale -> Some (v.read_id, "stale")
           | `Future -> Some (v.read_id, "future")
           | `Unwritten -> Some (v.read_id, "unwritten")
           | _ -> None)
    |> List.sort_uniq compare
  in
  Alcotest.check pairs "program agrees" expected program;
  Alcotest.check pairs "reads before [after] are not audited" []
    (named (Checks.realtime_violations ~after:56 h))

let test_reversed_pair () =
  let h = History.create () in
  let a = write h ~client:0 ~value:1 ~inv:0 ~resp:10 ~ts:5 in
  let b = write h ~client:1 ~value:2 ~inv:20 ~resp:30 ~ts:3 in
  Alcotest.(check (list (pair int int)))
    "reversed isolated pair" [ (a, b) ]
    (Checks.reversed_isolated_pairs ~after:0 ~ts_prec:( < ) h);
  let ordered = History.create () in
  ignore (write ordered ~client:0 ~value:1 ~inv:0 ~resp:10 ~ts:3);
  ignore (write ordered ~client:1 ~value:2 ~inv:20 ~resp:30 ~ts:5);
  Alcotest.(check (list (pair int int)))
    "ordered pair" [] (Checks.reversed_isolated_pairs ~after:0 ~ts_prec:( < ) ordered);
  (* a third write overlapping the span makes the pair non-isolated *)
  ignore (write h ~client:2 ~value:3 ~inv:5 ~resp:25 ~ts:9);
  Alcotest.(check (list (pair int int)))
    "overlapped pair" [] (Checks.reversed_isolated_pairs ~after:0 ~ts_prec:( < ) h)

let test_probe_wrong_value () =
  let keys = Array.init 8 (Printf.sprintf "key-%d") in
  let store () = Sbft_kv.Store.create ~seed:5L ~shards:2 ~n:6 ~f:1 ~clients:2 () in
  Alcotest.(check int) "right value" 0
    (Checks.probe (store ()) ~keys ~write:(fun i -> 100 + i) ~expect:(fun i -> 100 + i));
  Alcotest.(check int) "wrong value" 8
    (Checks.probe (store ()) ~keys ~write:(fun i -> 100 + i) ~expect:(fun i -> 101 + i))

let arrivals rate =
  Sbft_harness.Loadgen.schedule ~rng:(Sbft_sim.Rng.create 11L) ~duration:100_000
    (Sbft_harness.Loadgen.Poisson rate)
  |> List.fold_left (fun n (s : Sbft_harness.Loadgen.slot) -> n + s.batch) 0

let test_poisson_bound () =
  Alcotest.(check bool) "right rate" true
    (Checks.poisson_count_ok ~rate:0.6 ~duration:100_000 (arrivals 0.6));
  Alcotest.(check bool) "halved rate" false
    (Checks.poisson_count_ok ~rate:0.6 ~duration:100_000 (arrivals 0.3))

let test_share_and_percentile () =
  Alcotest.(check bool) "mix" true (Checks.share_ok ~p:0.05 ~n:60_000 3_050);
  Alcotest.(check bool) "halved mix" false (Checks.share_ok ~p:0.05 ~n:60_000 1_500);
  let a = Array.init 1000 (fun i -> i + 1) in
  Alcotest.(check (pair int int)) "nearest rank" (500, 999)
    (Checks.percentile a 0.5, Checks.percentile a 0.999)

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "real-time check flags planted reads" `Quick test_realtime_planted;
          Alcotest.test_case "reversed isolated write pair" `Quick test_reversed_pair;
          Alcotest.test_case "probe fails on the wrong value" `Quick test_probe_wrong_value;
          Alcotest.test_case "Poisson bound rejects a halved rate" `Quick test_poisson_bound;
          Alcotest.test_case "mix bound and percentiles" `Quick test_share_and_percentile;
        ] );
    ]
