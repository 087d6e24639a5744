(* The observability subsystem (lib/observe): histogram bucketing edge
   cases, the hand-rolled JSON parser, trace-event well-formedness over a
   real forking app, metrics schema checks, folded-profile determinism,
   replay regenerating the recorded run's syscall histogram, the Strace
   hex argument rendering, and the WALI crossing's one-registry and
   killed-call accounting. *)

(* ---- helpers ---- *)

let find_app name =
  match Apps.Suite.find name with
  | Some a -> a
  | None -> Alcotest.failf "no app %s" name

let run_observed ?(cfg = Observe.Sink.all_on) name =
  let sink = Observe.Sink.create cfg in
  let status, _ = Apps.Suite.run ~observe:sink (find_app name) in
  (sink, status)

let calls_by_name (reg : Observe.Metrics.t) : (string * int) list =
  List.map
    (fun (n, (s : Observe.Metrics.syscall_stats)) ->
      (n, s.Observe.Metrics.calls))
    (Observe.Metrics.by_name reg)

(* ---- histogram ---- *)

let test_hist_buckets () =
  let open Observe.Hist in
  Alcotest.(check int) "bucket of 0" 0 (bucket_of 0L);
  Alcotest.(check int) "bucket of -5 (defensive)" 0 (bucket_of (-5L));
  Alcotest.(check int) "bucket of 1" 1 (bucket_of 1L);
  Alcotest.(check int) "bucket of 2" 2 (bucket_of 2L);
  Alcotest.(check int) "bucket of 3" 2 (bucket_of 3L);
  Alcotest.(check int) "bucket of 4" 3 (bucket_of 4L);
  (* every bucket boundary: 2^(b-1) opens bucket b, 2^b - 1 closes it *)
  for b = 1 to 62 do
    let lo = Int64.shift_left 1L (b - 1) in
    let hi = Int64.sub (Int64.shift_left 1L b) 1L in
    Alcotest.(check int) (Printf.sprintf "lower edge of %d" b) b (bucket_of lo);
    Alcotest.(check int) (Printf.sprintf "upper edge of %d" b) b (bucket_of hi)
  done;
  Alcotest.(check int) "bucket of max_int" 63 (bucket_of Int64.max_int);
  Alcotest.(check int64) "lower_bound 0" 0L (lower_bound 0);
  Alcotest.(check int64) "upper_bound 0" 0L (upper_bound 0);
  Alcotest.(check int64) "lower_bound 1" 1L (lower_bound 1);
  Alcotest.(check int64) "upper_bound 1" 1L (upper_bound 1);
  Alcotest.(check int64) "last bucket open-ended" Int64.max_int (upper_bound 63)

let test_hist_percentiles () =
  let open Observe.Hist in
  let h = create () in
  Alcotest.(check int64) "empty p50" 0L (percentile h 0.50);
  record h 5L;
  (* single sample: the bucket's upper bound (7) clamps to the sample *)
  Alcotest.(check int64) "single-sample p50" 5L (percentile h 0.50);
  Alcotest.(check int64) "single-sample p99" 5L (percentile h 0.99);
  record h (-3L);
  Alcotest.(check int) "negative clamps to 0" 2 (count h);
  Alcotest.(check int64) "sum unaffected by clamp" 5L (sum h);
  let h = create () in
  record h 0L;
  Alcotest.(check int64) "all-zero p99" 0L (percentile h 0.99);
  let h = create () in
  (* 100 samples of 1ns and one huge outlier: p50 stays in bucket 1,
     p99+ reaches the outlier's bucket (clamped to the outlier) *)
  for _ = 1 to 100 do
    record h 1L
  done;
  record h 1_000_000L;
  Alcotest.(check int64) "p50 below outlier" 1L (percentile h 0.50);
  Alcotest.(check int64) "p100 hits outlier" 1_000_000L (percentile h 1.0);
  record h Int64.max_int;
  Alcotest.(check int64) "max_int recorded" Int64.max_int (max_value h);
  Alcotest.(check int64) "p100 = max_int" Int64.max_int (percentile h 1.0);
  Alcotest.(check (list (pair int int)))
    "nonzero buckets" [ (1, 100); (20, 1); (63, 1) ] (nonzero h)

let test_hist_merge () =
  let open Observe.Hist in
  let fill samples =
    let h = create () in
    List.iter (record h) samples;
    h
  in
  let fingerprint h = (count h, sum h, max_value h, nonzero h) in
  let check_eq msg a b =
    if fingerprint a <> fingerprint b then
      Alcotest.failf "%s: merged histograms differ" msg
  in
  let a = fill [ 1L; 2L; 1000L ] in
  let b = fill [ 7L; 7L; 7L; 1_000_000L ] in
  let c = fill [ 0L; Int64.max_int ] in
  (* merge is a pure sum: merging equals recording the union *)
  check_eq "merge = union of samples"
    (fill [ 1L; 2L; 1000L; 7L; 7L; 7L; 1_000_000L ])
    (merge a b);
  (* associativity and commutativity over all bucket state *)
  check_eq "associative" (merge (merge a b) c) (merge a (merge b c));
  check_eq "commutative" (merge a b) (merge b a);
  check_eq "empty is identity" a (merge a (create ()));
  (* inputs untouched *)
  Alcotest.(check int) "a untouched" 3 (count a);
  Alcotest.(check int) "b untouched" 4 (count b);
  (* percentiles of a merged histogram are monotone in p *)
  let m = merge (merge a b) c in
  let last = ref Int64.min_int in
  List.iter
    (fun p ->
      let v = percentile m p in
      if Int64.compare v !last < 0 then
        Alcotest.failf "percentile not monotone at p=%.2f" p;
      last := v)
    [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

(* ---- the crossing's unboxed registry path ---- *)

(* The WALI crossing counts a call with [Metrics.record_stats] on unboxed
   ints (what [Interface]'s [note] calls); a trace's int64 values go
   through [Metrics.record]. One random sequence of (result, ns), mostly
   zeros, with ns up to 2^40 and some negatives, must leave both
   registries identical, and their histograms must match one fed the
   same samples through [Hist]'s exact int64 [record]. *)
let prop_registry_int_path =
  let open QCheck.Gen in
  let result = frequency [ (6, return 0); (2, int_range 1 4096); (2, int_range (-133) (-1)) ] in
  let ns =
    frequency
      [ (5, return 0); (3, int_range 1 1_000); (2, int_range 0 (1 lsl 40));
        (1, int_range (-(1 lsl 40)) (-1)) ]
  in
  let print = QCheck.Print.(list (pair int int)) in
  QCheck.Test.make ~name:"registry: crossing's int path = Metrics.record" ~count:200
    (QCheck.make ~print (list_size (int_range 1 300) (pair result ns)))
    (fun calls ->
      let open Observe in
      let crossing = Metrics.create () and traced = Metrics.create () and exact = Hist.create () in
      let row = Metrics.stats_of crossing "read" in
      List.iter
        (fun (result, ns) ->
          Metrics.record_stats crossing row ~result ~ns;
          Metrics.record traced ~name:"read" ~result:(Int64.of_int result) ~ns:(Int64.of_int ns);
          Hist.record exact (Int64.of_int ns))
        calls;
      let hist h =
        ( (Hist.count h, Hist.sum h, Hist.nonzero h),
          List.map (Hist.percentile h) [ 0.5; 0.9; 0.99 ] @ [ Hist.max_value h ] )
      in
      let view reg =
        match Metrics.find reg "read" with
        | None -> None
        | Some s ->
            Some
              ( (s.Metrics.calls, s.Metrics.errors, s.Metrics.ns, Metrics.total_calls reg),
                hist s.Metrics.hist )
      in
      let errors = List.length (List.filter (fun (r, _) -> r < 0) calls)
      and ns = List.fold_left (fun acc (_, n) -> if n > 0 then acc + n else acc) 0 calls in
      view crossing = view traced
      && view crossing = Some ((List.length calls, errors, ns, List.length calls), hist exact))

(* ---- deterministic row ordering (shared comparators) ---- *)

let test_metrics_sort_tiebreak () =
  let reg = Observe.Metrics.create () in
  (* three syscalls with identical call counts and times: only the name
     can order them, and it must, identically for both comparators *)
  List.iter
    (fun n -> Observe.Metrics.record reg ~name:n ~result:0L ~ns:10L)
    [ "write"; "close"; "openat" ];
  let names l = List.map fst l in
  Alcotest.(check (list string))
    "by_calls breaks ties on name" [ "close"; "openat"; "write" ]
    (names (Observe.Metrics.by_calls reg));
  Alcotest.(check (list string))
    "by_time breaks ties on name" [ "close"; "openat"; "write" ]
    (names (Observe.Metrics.by_time reg));
  (* a busier syscall still sorts first *)
  Observe.Metrics.record reg ~name:"write" ~result:0L ~ns:10L;
  Alcotest.(check (list string))
    "calls dominate, then name" [ "write"; "close"; "openat" ]
    (names (Observe.Metrics.by_calls reg))

(* ---- JSON parser ---- *)

let test_json_parser () =
  let open Observe.Json in
  (match parse {|{"a":[1,-2.5e2,true,null],"b\n":"xA"}|} with
  | Obj [ ("a", Arr [ Num 1.0; Num -250.0; Bool true; Null ]); (k, Str v) ] ->
      Alcotest.(check string) "escaped key" "b\n" k;
      Alcotest.(check string) "unicode escape" "xA" v
  | _ -> Alcotest.fail "unexpected parse shape");
  (match parse_result "{\"a\":1} garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match parse_result "{\"a\":}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed value accepted"

(* ---- trace well-formedness ---- *)

let test_trace_minish () =
  let sink, status = run_observed "minish" in
  Alcotest.(check int) "exit status" 0 (status lsr 8);
  match Observe.Check.check_trace (Observe.Sink.trace_json sink) with
  | Error e -> Alcotest.failf "trace: %s" e
  | Ok ts ->
      let real =
        List.filter
          (fun p -> p <> Observe.Sink.sched_pid)
          ts.Observe.Check.ts_pids
      in
      Alcotest.(check bool) "has events" true (ts.Observe.Check.ts_events > 0);
      Alcotest.(check bool)
        "forking app yields >= 2 process lanes" true
        (List.length real >= 2)

let test_trace_checker_rejects () =
  let reject label s =
    match Observe.Check.check_trace s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  reject "garbage" "nonsense";
  reject "unclosed span"
    {|{"traceEvents":[{"ph":"B","name":"x","cat":"c","pid":1,"tid":1,"ts":"0.000"}]}|};
  reject "mismatched E"
    {|{"traceEvents":[{"ph":"B","name":"x","cat":"c","pid":1,"tid":1,"ts":"0.000"},{"ph":"E","name":"y","cat":"c","pid":1,"tid":1,"ts":"1.000"}]}|};
  reject "time runs backwards"
    {|{"traceEvents":[{"ph":"i","name":"x","cat":"c","pid":1,"tid":1,"ts":"5.000","s":"t"},{"ph":"i","name":"y","cat":"c","pid":1,"tid":1,"ts":"1.000","s":"t"}]}|}

(* ---- metrics schema ---- *)

let test_metrics_json () =
  let sink, _ = run_observed "calc" in
  let s = Observe.Sink.metrics_json sink in
  (match Observe.Check.check_metrics s with
  | Error e -> Alcotest.failf "metrics: %s" e
  | Ok () -> ());
  let doc = Observe.Json.parse s in
  let num path obj =
    match Option.bind (Observe.Json.member path obj) Observe.Json.to_num with
    | Some f -> f
    | None -> Alcotest.failf "missing %s" path
  in
  let run = Option.get (Observe.Json.member "run" doc) in
  Alcotest.(check bool) "instructions > 0" true (num "instructions" run > 0.0);
  Alcotest.(check bool) "wall_ns > 0" true (num "wall_ns" run > 0.0);
  (* the folded profile's total weight is the profile_ns field exactly *)
  Alcotest.(check int64)
    "folded total = profile_ns"
    (Observe.Sink.profile_total sink)
    (Int64.of_float (num "profile_ns" run));
  match Observe.Check.check_folded (Observe.Sink.profile_folded sink) with
  | Error e -> Alcotest.failf "folded: %s" e
  | Ok total ->
      Alcotest.(check int64)
        "parsed folded total" (Observe.Sink.profile_total sink) total

(* ---- folded-profile determinism ---- *)

let test_profile_deterministic () =
  let fold () =
    let sink, _ = run_observed "calc" in
    Observe.Sink.profile_folded sink
  in
  let a = fold () and b = fold () in
  Alcotest.(check bool) "profile non-empty" true (String.length a > 0);
  Alcotest.(check string) "identical runs fold identically" a b

(* ---- record/replay regenerates the histogram ---- *)

let test_replay_regenerates_metrics () =
  let a = find_app "minish" in
  let kernel =
    Apps.Suite.boot ~setup:a.Apps.Suite.a_setup ~stdin:a.Apps.Suite.a_stdin ()
  in
  let recorded = Observe.Sink.create Observe.Sink.metrics_only in
  let r =
    Replay.Recorder.record ~app:"minish" ~kernel ~observe:recorded
      ~binary:(Apps.Suite.binary_of a) ~argv:a.Apps.Suite.a_argv ~env:[] ()
  in
  let replayed = Observe.Sink.create Observe.Sink.metrics_only in
  let o =
    Replay.Replayer.replay ~setup:a.Apps.Suite.a_setup ~observe:replayed
      ~trace:r.Replay.Recorder.r_trace
      ~binary:(Apps.Suite.binary_of a) ()
  in
  Alcotest.(check bool) "replay converged" true (Replay.Replayer.converged o);
  Alcotest.(check (list (pair string int)))
    "per-syscall call counts survive the round trip"
    (calls_by_name (Observe.Sink.metrics recorded))
    (calls_by_name (Observe.Sink.metrics replayed))

(* ---- strace hex rendering ---- *)

let test_strace_hex_args () =
  let t = Wali.Strace.create ~verbose:true () in
  let lines = ref [] in
  t.Wali.Strace.log <- Some (fun l -> lines := l :: !lines);
  Wali.Strace.note t ~pid:7 ~name:"write" ~args:[| 3L; 0x12340L; 64L |]
    ~result:64L ~ns:100L;
  Wali.Strace.note t ~pid:7 ~name:"close" ~args:[| 0xFFFFL |] ~result:0L
    ~ns:0L;
  match List.rev !lines with
  | [ w; c ] ->
      Alcotest.(check string)
        "address-like arg in hex" "[7] write(3, 0x12340, 64) = 64" w;
      Alcotest.(check string) "small args stay decimal" "[7] close(65535) = 0" c
  | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls)

(* ---- the crossing: one registry, closed even when killed ---- *)

(* A seccomp kill raises out of the crossing. The call still closes its
   span and counts once, as a failed call. *)
let test_seccomp_kill_closes_span () =
  let trace = Wali.Strace.create () in
  let sink =
    Observe.Sink.create ~metrics:(Wali.Strace.metrics trace)
      Observe.Sink.all_on
  in
  let policy = Wali.Seccomp.allow_all () in
  Wali.Seccomp.kill_on policy "write";
  let status, _ =
    Apps.Suite.run ~trace ~policy ~observe:sink (find_app "calc")
  in
  Alcotest.(check int) "killed by SIGSYS"
    (Kernel.Ktypes.wsignal_status Kernel.Ktypes.sigsys)
    status;
  (match Observe.Check.check_trace (Observe.Sink.trace_json sink) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trace: %s" e);
  match Wali.Strace.info trace "write" with
  | None -> Alcotest.fail "the killed write was not counted"
  | Some i ->
      Alcotest.(check int) "write counted once" 1 i.Wali.Strace.i_calls;
      Alcotest.(check int) "as a failed call" 1 i.Wali.Strace.i_errors

let test_one_registry_per_engine () =
  let o = Observe.Sink.create Observe.Sink.metrics_only in
  let eng = Wali.Engine.create ~observe:o (Kernel.Task.boot ()) in
  Alcotest.(check bool) "the tracer is a view over the sink's registry" true
    (Wali.Strace.metrics eng.Wali.Engine.trace == Observe.Sink.metrics o);
  Alcotest.check_raises "a tracer over another registry is refused"
    (Invalid_argument
       "Engine.create: ~trace and ~observe must share one metrics registry")
    (fun () ->
      ignore
        (Wali.Engine.create ~trace:(Wali.Strace.create ()) ~observe:o
           (Kernel.Task.boot ())));
  (* a recorded run counts each recorded syscall exactly once *)
  let a = find_app "minish" in
  let sink = Observe.Sink.create Observe.Sink.all_on in
  let r =
    Replay.Recorder.record ~observe:sink
      ~kernel:(Apps.Suite.boot ~setup:a.Apps.Suite.a_setup
                 ~stdin:a.Apps.Suite.a_stdin ())
      ~binary:(Apps.Suite.binary_of a) ~argv:a.Apps.Suite.a_argv ~env:[] ()
  in
  let recorded =
    Array.fold_left
      (fun n -> function Replay.Trace.E_syscall _ -> n + 1 | _ -> n)
      0 r.Replay.Recorder.r_trace.Replay.Trace.tr_events
  in
  Alcotest.(check bool) "minish makes syscalls" true (recorded > 0);
  Alcotest.(check int) "sink calls = recorded syscall events" recorded
    (Observe.Metrics.total_calls (Observe.Sink.metrics sink))

let tests =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_hist_buckets;
    Alcotest.test_case "histogram percentiles" `Quick test_hist_percentiles;
    Alcotest.test_case "histogram merge" `Quick test_hist_merge;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |]) prop_registry_int_path;
    Alcotest.test_case "metrics sort tie-breaks on name" `Quick
      test_metrics_sort_tiebreak;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "minish trace well-formed, 2+ lanes" `Quick
      test_trace_minish;
    Alcotest.test_case "trace checker rejects malformed" `Quick
      test_trace_checker_rejects;
    Alcotest.test_case "metrics schema v1" `Quick test_metrics_json;
    Alcotest.test_case "folded profile deterministic" `Quick
      test_profile_deterministic;
    Alcotest.test_case "replay regenerates syscall histogram" `Quick
      test_replay_regenerates_metrics;
    Alcotest.test_case "strace renders addresses in hex" `Quick
      test_strace_hex_args;
    Alcotest.test_case "seccomp kill closes span, counts call" `Quick
      test_seccomp_kill_closes_span;
    Alcotest.test_case "one registry per engine" `Quick
      test_one_registry_per_engine;
  ]
