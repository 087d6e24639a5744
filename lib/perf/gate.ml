(** The suite gate's per-app checks, all but the baseline comparison.
    They read the app's one instrumented run ({!Scenario.run_app}) and
    add two runs of their own: an unfused recording and a replay.

    - Output: the run's console output holds every substring the app
      expects ([a_expect]).
    - Dynamic ⊆ static: every syscall the run dispatched is in the
      statically derived allowlist, and the allowlist denied nothing.
    - Artifacts: the span trace is well nested, the metrics dump matches
      its schema, and the folded profile's total equals the profiled
      time. The forking app (minish) shows at least two process lanes.
    - Fusion differential: the fused and unfused recordings reduce to
      byte-identical traces. Fusion may change how fast ops dispatch,
      never which events cross the WALI boundary.
    - Replay: the decode of the encoded fused trace replays against the
      binary with no divergence. *)

let output (a : Apps.Suite.app) (out : string) : string list =
  List.map
    (Printf.sprintf "output %S lacks %S" out)
    (Apps.Suite.missing_output a out)

let soundness (v : Analysis.Crosscheck.verdict) : string list =
  List.map
    (Printf.sprintf "escaped syscall (dispatched, not in static set): %s")
    v.Analysis.Crosscheck.cc_escaped
  @ List.map
      (fun (n, c) -> Printf.sprintf "denied under derived policy: %s (%d)" n c)
      v.Analysis.Crosscheck.cc_denied

let artifacts ~name (sink : Observe.Sink.t) : string list =
  let trace =
    match Observe.Check.check_trace (Observe.Sink.trace_json sink) with
    | Error e -> [ "trace: " ^ e ]
    | Ok ts ->
        let lanes =
          List.length
            (List.filter
               (fun p -> p <> Observe.Sink.sched_pid)
               ts.Observe.Check.ts_pids)
        in
        if ts.Observe.Check.ts_events = 0 then [ "trace is empty" ]
        else if name = "minish" && lanes < 2 then
          [ Printf.sprintf "expected >= 2 process lanes, got %d" lanes ]
        else []
  in
  let metrics =
    match Observe.Check.check_metrics (Observe.Sink.metrics_json sink) with
    | Error e -> [ "metrics: " ^ e ]
    | Ok () -> []
  in
  let profile =
    match Observe.Check.check_folded (Observe.Sink.profile_folded sink) with
    | Error e -> [ "profile: " ^ e ]
    | Ok total ->
        let profiled = Observe.Sink.profile_total sink in
        if Int64.compare total 0L <= 0 then [ "profile is empty" ]
        else if not (Int64.equal total profiled) then
          [ Printf.sprintf "profile total %Ld <> profiled time %Ld" total
              profiled ]
        else []
  in
  trace @ metrics @ profile

let encode tr = Replay.Trace.encode (Replay.Reduce.reduce tr)

let differential (a : Apps.Suite.app) ~(fused : Replay.Trace.t) : string list =
  let fused_bytes = encode fused in
  let unfused_bytes =
    encode (Scenario.record ~fuse:false a).Replay.Recorder.r_trace
  in
  let fusion =
    if String.equal fused_bytes unfused_bytes then []
    else
      [ Printf.sprintf
          "FUSION DIVERGENCE: fused and unfused runs recorded different \
           traces (%d vs %d bytes)"
          (String.length fused_bytes)
          (String.length unfused_bytes) ]
  in
  let replay =
    Replay.Replayer.replay ~setup:a.Apps.Suite.a_setup
      ~trace:(Replay.Trace.decode fused_bytes)
      ~binary:(Apps.Suite.binary_of a) ()
  in
  match replay.Replay.Replayer.rp_divergence with
  | None -> fusion
  | Some d -> fusion @ [ "replay " ^ Replay.Replayer.pp_divergence d ]

(** Every per-app failure of [a], given its instrumented run [r]. *)
let failures (a : Apps.Suite.app) (r : Scenario.app_result) : string list =
  output a r.Scenario.ar_output
  @ soundness r.Scenario.ar_verdict
  @ artifacts ~name:r.Scenario.ar_name r.Scenario.ar_sink
  @ differential a ~fused:r.Scenario.ar_trace
