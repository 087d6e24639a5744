(** The deterministic scenario runner behind `waliperf`.

    Each bundled app runs once, fused, with everything the suite gate
    reads switched on: the replay recorder, an observability sink with
    all three pillars (metrics, span trace, folded-stack profile) and the
    seccomp allowlist the static analyzer derives for the binary. None of these moves the virtual clock, so the run
    reports the same deterministic counters a bare run would:
    instructions retired, syscall crossings, virtual-clock nanoseconds,
    scheduler and kernel event counts. Two runs of the same build produce
    byte-identical results, which is what lets the baseline gate use zero
    tolerance.

    The suite-level scenario merges every per-app latency histogram
    ({!Observe.Hist.merge}) into whole-suite percentiles of time below
    the WALI boundary — still virtual-clock, still deterministic. *)

type app_result = {
  ar_name : string;
  ar_status : int; (* raw wait status *)
  ar_metrics : (string * Model.metric) list;
  ar_sink : Observe.Sink.t; (* all pillars: registry, trace, profile *)
  ar_trace : Replay.Trace.t; (* the run's recording *)
  ar_output : string; (* the recorded run's console output *)
  ar_verdict : Analysis.Crosscheck.verdict; (* dynamic vs static syscalls *)
}

let scenario_name app = "app/" ^ app

(** Record one run of [a] from a freshly booted suite kernel. *)
let record ?fuse ?policy ?observe (a : Apps.Suite.app) : Replay.Recorder.run =
  Replay.Recorder.record ~app:a.Apps.Suite.a_name ?fuse ?policy ?observe
    ~kernel:(Apps.Suite.boot ~setup:a.Apps.Suite.a_setup
               ~stdin:a.Apps.Suite.a_stdin ())
    ~binary:(Apps.Suite.binary_of a) ~argv:a.Apps.Suite.a_argv ~env:[] ()

(** The one instrumented run of [a]. Raises if the static analysis of
    its binary fails. *)
let run_app (a : Apps.Suite.app) : app_result =
  let name = a.Apps.Suite.a_name in
  let summary =
    Analysis.Reach.analyze_binary ~name (Apps.Suite.binary_of a)
  in
  let policy = Analysis.Reach.policy summary in
  let sink = Observe.Sink.create Observe.Sink.all_on in
  let r = record ~policy ~observe:sink a in
  let status = r.Replay.Recorder.r_status in
  let rc = Observe.Sink.run_counters sink in
  let reg = Observe.Sink.metrics sink in
  let ks = Observe.Sink.kstats_or_zero sink in
  let ci = Model.counter_i in
  let c v = Model.counter (float_of_int v) in
  {
    ar_name = name;
    ar_status = status;
    ar_metrics =
      [
        ("instructions", ci rc.Observe.Sink.rc_instructions);
        ("fused_dispatches", ci rc.Observe.Sink.rc_fused);
        ("fusion_sites", c rc.Observe.Sink.rc_fusion_sites);
        ("fusion_ops_before", c rc.Observe.Sink.rc_fusion_ops_before);
        ("fusion_ops_after", c rc.Observe.Sink.rc_fusion_ops_after);
        ("syscalls", c (Observe.Metrics.total_calls reg));
        ("unique_syscalls", c (Observe.Metrics.unique reg));
        ("syscall_errors", c (Observe.Metrics.total_errors reg));
        ("syscall_ns", ci ~unit_:"ns" (Observe.Metrics.total_ns reg));
        ("virtual_ns", ci ~unit_:"ns" rc.Observe.Sink.rc_wall_ns);
        ("profile_ns", ci ~unit_:"ns" rc.Observe.Sink.rc_profile_ns);
        ("ctx_switches", c rc.Observe.Sink.rc_ctx_switches);
        ("processes", c rc.Observe.Sink.rc_processes);
        ("safepoint_polls", ci rc.Observe.Sink.rc_safepoint_polls);
        ("dcache_hits", ci ks.Observe.Metrics.dcache_hits);
        ("dcache_misses", ci ks.Observe.Metrics.dcache_misses);
        ("exit_status", c (status lsr 8));
      ];
    ar_sink = sink;
    ar_trace = r.Replay.Recorder.r_trace;
    ar_output = r.Replay.Recorder.r_output;
    ar_verdict = Analysis.Crosscheck.check ~summary ~policy reg;
  }

(** Suite-level aggregate: merge the per-syscall latency histograms of
    every app into one, and report whole-suite counters and latency
    percentiles below the WALI boundary. *)
let suite_scenario (results : app_result list) :
    string * (string * Model.metric) list =
  let merged =
    List.fold_left
      (fun acc r ->
        Observe.Metrics.fold
          (fun _ (s : Observe.Metrics.syscall_stats) acc ->
            Observe.Hist.merge acc s.Observe.Metrics.hist)
          (Observe.Sink.metrics r.ar_sink) acc)
      (Observe.Hist.create ()) results
  in
  let sum name =
    List.fold_left
      (fun a r ->
        match List.assoc_opt name r.ar_metrics with
        | Some m -> a +. m.Model.m_value
        | None -> a)
      0.0 results
  in
  ( "suite",
    [
      ("apps", Model.counter (float_of_int (List.length results)));
      ("instructions", Model.counter (sum "instructions"));
      ("fused_dispatches", Model.counter (sum "fused_dispatches"));
      ("dcache_hits", Model.counter (sum "dcache_hits"));
      ("dcache_misses", Model.counter (sum "dcache_misses"));
      ("syscalls", Model.counter (sum "syscalls"));
      ("virtual_ns", Model.counter ~unit_:"ns" (sum "virtual_ns"));
      ( "latency_p50_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.percentile merged 0.50) );
      ( "latency_p90_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.percentile merged 0.90) );
      ( "latency_p99_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.percentile merged 0.99) );
      ( "latency_max_ns",
        Model.counter_i ~unit_:"ns" (Observe.Hist.max_value merged) );
    ] )

(** The [wali-bench v1] run of [results] plus the per-app folded profiles
    (for the differential profiler). *)
let model (results : app_result list) : Model.t * (string * string) list =
  let scenarios =
    suite_scenario results
    :: List.map (fun r -> (scenario_name r.ar_name, r.ar_metrics)) results
  in
  ( Model.make ~suite:"wali-deterministic" scenarios,
    List.map
      (fun r -> (r.ar_name, Observe.Sink.profile_folded r.ar_sink))
      results )
