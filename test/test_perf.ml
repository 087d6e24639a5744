(* The performance observatory (lib/perf): sample statistics, the
   wali-bench v1 model round-trip through the schema checker, baseline
   verdict classification (zero-tolerance counters, noise-banded wall
   metrics), the differential profiler on hand-built folded stacks, and
   determinism of the gate's scenario runner. *)

let check_err msg = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected rejection" msg

(* ---- stats ---- *)

let test_stats () =
  let open Perf.Stats in
  Alcotest.(check (float 1e-9)) "median odd" 3.0 (median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (median [ 4.0; 1.0; 2.0; 3.0 ]);
  let s = of_samples [ 10.0; 12.0; 11.0; 50.0; 10.0 ] in
  Alcotest.(check int) "n" 5 s.s_n;
  Alcotest.(check (float 1e-9)) "min" 10.0 s.s_min;
  Alcotest.(check (float 1e-9)) "median" 11.0 s.s_median;
  (* deviations from 11: [1;1;0;39;1] -> median 1; the outlier does not
     inflate the band *)
  Alcotest.(check (float 1e-9)) "mad robust to outlier" 1.0 s.s_mad;
  Alcotest.(check (float 1e-9)) "rel noise" 0.1 (rel_noise s);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (of_samples []).s_min;
  (* measure: one warmup discarded, n samples kept *)
  let calls = ref 0 in
  let s =
    measure ~warmup:1 ~n:3 (fun () ->
        incr calls;
        float_of_int !calls)
  in
  Alcotest.(check int) "sampler called warmup+n times" 4 !calls;
  Alcotest.(check (float 1e-9)) "warmup sample discarded" 2.0 s.s_min

(* ---- wali-bench v1 round-trip ---- *)

let sample_model () =
  Perf.Model.make ~suite:"test"
    [
      ( "app/calc",
        [
          ("instructions", Perf.Model.counter 123456.0);
          ("syscalls", Perf.Model.counter 42.0);
          ("virtual_ns", Perf.Model.counter ~unit_:"ns" 98765.0);
        ] );
      ( "table2",
        [
          ("write", Perf.Model.wall_v ~n:5 ~mad:2.5 117.25);
          ("getpid", Perf.Model.wall_v ~n:5 ~mad:0.0 64.0);
        ] );
    ]

let test_model_roundtrip () =
  let m = sample_model () in
  let json = Perf.Model.to_json m in
  (match Observe.Check.check_bench json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emitted JSON fails its own checker: %s" e);
  let m2 =
    match Perf.Model.of_json json with
    | Ok m2 -> m2
    | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  in
  Alcotest.(check string) "emit-parse-emit is the identity" json
    (Perf.Model.to_json m2);
  (match Perf.Model.find_metric m2 ~scenario:"app/calc" ~metric:"instructions" with
  | Some mm ->
      Alcotest.(check (float 0.0)) "counter survives" 123456.0 mm.Perf.Model.m_value;
      Alcotest.(check bool) "kind survives" true (mm.Perf.Model.m_kind = Perf.Model.Counter)
  | None -> Alcotest.fail "metric lost in round-trip");
  (match Perf.Model.find_metric m2 ~scenario:"table2" ~metric:"write" with
  | Some mm ->
      Alcotest.(check (float 1e-9)) "wall value survives" 117.25 mm.Perf.Model.m_value;
      Alcotest.(check int) "n survives" 5 mm.Perf.Model.m_n;
      Alcotest.(check (float 1e-9)) "mad survives" 2.5 mm.Perf.Model.m_mad
  | None -> Alcotest.fail "wall metric lost in round-trip");
  (* canonical ordering: scenario insertion order does not matter *)
  let swapped =
    Perf.Model.make ~suite:"test"
      (List.rev m.Perf.Model.b_scenarios)
  in
  Alcotest.(check string) "ordering canonical" json (Perf.Model.to_json swapped)

let test_check_bench_rejects () =
  let open Observe.Check in
  check_err "not json" (check_bench "nope");
  check_err "wrong schema"
    (check_bench {|{"schema":"wali-trace","version":1,"suite":"t","scenarios":{"s":{"metrics":{"m":{"kind":"counter","value":1,"unit":"count"}}}}}|});
  check_err "wrong version"
    (check_bench {|{"schema":"wali-bench","version":2,"suite":"t","scenarios":{"s":{"metrics":{"m":{"kind":"counter","value":1,"unit":"count"}}}}}|});
  check_err "empty scenarios"
    (check_bench {|{"schema":"wali-bench","version":1,"suite":"t","scenarios":{}}|});
  check_err "bad kind"
    (check_bench {|{"schema":"wali-bench","version":1,"suite":"t","scenarios":{"s":{"metrics":{"m":{"kind":"gauge","value":1,"unit":"count"}}}}}|});
  check_err "counter with noise band"
    (check_bench {|{"schema":"wali-bench","version":1,"suite":"t","scenarios":{"s":{"metrics":{"m":{"kind":"counter","value":1,"unit":"count","mad":2}}}}}|});
  check_err "wall without sample count"
    (check_bench {|{"schema":"wali-bench","version":1,"suite":"t","scenarios":{"s":{"metrics":{"m":{"kind":"wall","value":1,"unit":"ns","mad":0}}}}}|});
  match
    check_bench
      {|{"schema":"wali-bench","version":1,"suite":"t","scenarios":{"s":{"metrics":{"m":{"kind":"wall","value":1,"unit":"ns","n":3,"mad":0}}}}}|}
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid wall metric rejected: %s" e

(* ---- baseline verdicts ---- *)

let run suite metrics = Perf.Model.make ~suite [ ("s", metrics) ]

let verdict_of rows metric =
  match
    List.find_opt (fun r -> r.Perf.Baseline.r_metric = metric) rows
  with
  | Some r -> r.Perf.Baseline.r_verdict
  | None -> Alcotest.failf "no row for %s" metric

let test_baseline_verdicts () =
  let open Perf.Baseline in
  let c = Perf.Model.counter in
  let base =
    run "b"
      [
        ("insns", c 1000.0);
        ("up", c 10.0);
        ("down", c 10.0);
        ("gone", c 1.0);
        ("t_stable", Perf.Model.wall_v ~n:5 ~mad:5.0 100.0);
        ("t_slow", Perf.Model.wall_v ~n:5 ~mad:1.0 100.0);
        ("t_fast", Perf.Model.wall_v ~n:5 ~mad:1.0 100.0);
      ]
  in
  let cur =
    run "c"
      [
        ("insns", c 1000.0);
        ("up", c 11.0); (* +1: drift even though tiny *)
        ("down", c 9.0); (* -1: "improved", still drift *)
        ("new", c 7.0);
        ("t_stable", Perf.Model.wall_v ~n:5 ~mad:5.0 104.0); (* inside band *)
        ("t_slow", Perf.Model.wall_v ~n:5 ~mad:1.0 150.0); (* way out *)
        ("t_fast", Perf.Model.wall_v ~n:5 ~mad:1.0 50.0); (* way out, down *)
      ]
  in
  let rows = compare_runs ~base ~cur () in
  let v = verdict_of rows in
  Alcotest.(check bool) "equal counter unchanged" true (v "insns" = Unchanged);
  Alcotest.(check bool) "+1 counter regressed" true (v "up" = Regressed);
  Alcotest.(check bool) "-1 counter improved" true (v "down" = Improved);
  Alcotest.(check bool) "added" true (v "new" = Added);
  Alcotest.(check bool) "removed" true (v "gone" = Removed);
  Alcotest.(check bool) "wall inside band" true (v "t_stable" = Within_noise);
  Alcotest.(check bool) "wall beyond band" true (v "t_slow" = Regressed);
  Alcotest.(check bool) "wall faster beyond band" true (v "t_fast" = Improved);
  (* the gate's failure condition: every counter move counts, including
     the "improvement" and the added/removed ones; wall noise never does *)
  let drift =
    List.map (fun r -> r.r_metric) (counter_drift rows) |> List.sort compare
  in
  Alcotest.(check (list string))
    "counter drift" [ "down"; "gone"; "new"; "up" ] drift;
  Alcotest.(check (list string))
    "wall regressions" [ "t_slow" ]
    (List.map (fun r -> r.r_metric) (regressions rows)
    |> List.filter (fun m -> m = "t_slow" || m = "t_fast" || m = "t_stable"));
  (* a larger noise band widens the tolerance *)
  let t =
    wall_tolerance
      ~base:(Perf.Model.wall_v ~n:5 ~mad:10.0 100.0)
      ~cur:(Perf.Model.wall_v ~n:5 ~mad:10.0 100.0)
      ()
  in
  Alcotest.(check bool) "band-driven tolerance above floor" true (t > 5.0)

(* ---- differential profiler ---- *)

let test_diffprof () =
  let open Perf.Diffprof in
  (* duplicate stacks accumulate *)
  (match parse_folded "a;b 10\na;b 5\nc 1" with
  | Ok [ ("a;b", 15L); ("c", 1L) ] -> ()
  | Ok l -> Alcotest.failf "unexpected parse: %d entries" (List.length l)
  | Error e -> Alcotest.fail e);
  check_err "malformed line" (parse_folded "no-weight-here");
  check_err "malformed weight" (parse_folded "a;b ten");
  let base = "main;compute 100\nmain;wali;read 50\nmain;wali;close 10" in
  let cur = "main;compute 100\nmain;wali;read 80\nmain;wali;close 10\nmain;wali;write 25" in
  let d =
    match diff ~base ~cur with Ok d -> d | Error e -> Alcotest.fail e
  in
  Alcotest.(check int64) "total delta" 55L (total_delta d);
  (* only changed stacks appear, largest |delta| first *)
  (match d.d_entries with
  | [ e1; e2 ] ->
      Alcotest.(check string) "read stack first" "main;wali;read" e1.e_stack;
      Alcotest.(check int64) "read delta" 30L (delta e1);
      Alcotest.(check string) "write stack second" "main;wali;write" e2.e_stack;
      Alcotest.(check int64) "write appears vs 0" 25L (delta e2)
  | l -> Alcotest.failf "expected 2 changed stacks, got %d" (List.length l));
  (* frame attribution: wali carries both deltas; leaves name syscalls *)
  Alcotest.(check (list (pair string int64)))
    "frames" [ ("wali", 55L); ("main", 55L); ("read", 30L); ("write", 25L) ]
    (List.sort
       (fun (an, a) (bn, b) ->
         let c = Int64.compare (Int64.abs b) (Int64.abs a) in
         if c <> 0 then c else compare bn an)
       (frames d));
  Alcotest.(check (list (pair string int64)))
    "leaves are syscalls" [ ("read", 30L); ("write", 25L) ] (leaves d);
  (* identical profiles: empty diff *)
  let d0 = match diff ~base ~cur:base with Ok d -> d | Error e -> Alcotest.fail e in
  Alcotest.(check int) "no entries" 0 (List.length d0.d_entries);
  Alcotest.(check int64) "no delta" 0L (total_delta d0)

(* ---- gate scenario determinism ---- *)

let test_scenario_deterministic () =
  let app =
    match Apps.Suite.find "calc" with
    | Some a -> a
    | None -> Alcotest.fail "no calc app"
  in
  let m1, p1 = Perf.Scenario.(model [ run_app app ]) in
  let m2, p2 = Perf.Scenario.(model [ run_app app ]) in
  Alcotest.(check string) "byte-identical wali-bench emission"
    (Perf.Model.to_json m1) (Perf.Model.to_json m2);
  (match (p1, p2) with
  | [ (_, f1) ], [ (_, f2) ] ->
      Alcotest.(check string) "byte-identical folded profile" f1 f2
  | _ -> Alcotest.fail "expected one profile per run");
  match Observe.Check.check_bench (Perf.Model.to_json m1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gate emission fails the checker: %s" e

let tests =
  [
    Alcotest.test_case "min-of-N with MAD band" `Quick test_stats;
    Alcotest.test_case "wali-bench v1 round-trip" `Quick test_model_roundtrip;
    Alcotest.test_case "schema checker rejects malformed" `Quick
      test_check_bench_rejects;
    Alcotest.test_case "baseline verdicts" `Quick test_baseline_verdicts;
    Alcotest.test_case "differential profiler" `Quick test_diffprof;
    Alcotest.test_case "gate scenarios deterministic" `Quick
      test_scenario_deterministic;
  ]
