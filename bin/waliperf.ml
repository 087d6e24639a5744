(* waliperf — the performance observatory CLI and the suite gate
   (`dune build @gate`).

     dune exec bin/waliperf.exe -- run -o BENCH_perf.json
     dune exec bin/waliperf.exe -- compare baseline.json current.json
     dune exec bin/waliperf.exe -- diff base.folded cur.folded
     dune exec bin/waliperf.exe -- baseline update
     dune exec bin/waliperf.exe -- gate --quiet

   `run` executes every bundled app once, with the recorder, every
   observability pillar and the statically derived seccomp allowlist on,
   and emits the deterministic counters (instructions retired, syscall
   crossings, virtual-clock ns) as a `wali-bench v1` JSON document.
   `gate` checks each app's run (static ⊇ dynamic syscalls, well-formed
   trace/metrics/profile, fused = unfused recording, replay without
   divergence — see Perf.Gate) and compares the counters against the
   committed baselines under bench/baselines/ at zero tolerance: any
   counter drift is a real behavior change, and the diff of the run's
   folded-stack profile against the baseline profile names the
   responsible frames and syscalls. `baseline update` is the deliberate
   way to accept a new truth. *)

open Cmdliner

let default_dir = "bench/baselines"
let det_file dir = Filename.concat dir "deterministic.json"
let folded_file dir app = Filename.concat dir (app ^ ".folded")

let write_file f s =
  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

let read_file f =
  match In_channel.with_open_bin f In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let load_model what file =
  match Perf.Model.load file with
  | Ok m -> m
  | Error e ->
      Printf.eprintf "waliperf: %s %s: %s\n" what file e;
      exit 1

(* ---- run ---- *)

let run_cmd no_fuse walls out =
  let model, _profiles =
    Perf.Scenario.run_suite ~fuse:(not no_fuse) ~walls ()
  in
  let json = Perf.Model.to_json model in
  (match Observe.Check.check_bench json with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "waliperf: emitted invalid wali-bench JSON: %s\n" e;
      exit 1);
  match out with
  | Some f ->
      write_file f json;
      Printf.printf "waliperf: wrote %d scenarios to %s\n"
        (List.length model.Perf.Model.b_scenarios)
        f
  | None -> print_string json

(* ---- compare ---- *)

let compare_cmd floor_pct all base_file cur_file =
  let base = load_model "baseline" base_file in
  let cur = load_model "current" cur_file in
  let rows = Perf.Baseline.compare_runs ~floor_pct ~base ~cur () in
  print_string (Perf.Baseline.render ~all rows);
  let bad =
    Perf.Baseline.regressions rows @ Perf.Baseline.counter_drift rows
  in
  if bad = [] then begin
    Printf.printf "no regressions (%d metrics compared)\n" (List.length rows);
    exit 0
  end
  else begin
    Printf.printf "%d metric(s) regressed or drifted\n"
      (List.length (List.sort_uniq compare bad));
    exit 1
  end

(* ---- diff ---- *)

let diff_cmd top base_file cur_file =
  let slurp f =
    match read_file f with
    | Some s -> s
    | None ->
        Printf.eprintf "waliperf: cannot read %s\n" f;
        exit 1
  in
  match Perf.Diffprof.diff ~base:(slurp base_file) ~cur:(slurp cur_file) with
  | Error e ->
      Printf.eprintf "waliperf: %s\n" e;
      exit 1
  | Ok d ->
      print_string (Perf.Diffprof.render ~top d);
      exit (if d.Perf.Diffprof.d_entries = [] then 0 else 1)

(* ---- baseline update ---- *)

let baseline_cmd dir =
  let model, profiles = Perf.Scenario.run_suite () in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Perf.Model.save (det_file dir) model;
  List.iter (fun (app, folded) -> write_file (folded_file dir app) folded) profiles;
  Printf.printf
    "waliperf: baseline updated: %s (%d scenarios) + %d folded profiles in %s\n"
    (det_file dir)
    (List.length model.Perf.Model.b_scenarios)
    (List.length profiles) dir

(* ---- gate ---- *)

(* Flamegraph-diff every drifted app against its baseline profile; the
   responsible frames and syscall leaves name the behavior change. *)
let gate_diffs dir (drift : Perf.Baseline.row list)
    (profiles : (string * string) list) : string =
  let apps =
    List.filter_map
      (fun (r : Perf.Baseline.row) ->
        let sc = r.Perf.Baseline.r_scenario in
        if String.length sc > 4 && String.sub sc 0 4 = "app/" then
          Some (String.sub sc 4 (String.length sc - 4))
        else None)
      drift
    |> List.sort_uniq compare
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun app ->
      match (read_file (folded_file dir app), List.assoc_opt app profiles) with
      | Some base, Some cur -> (
          match Perf.Diffprof.diff ~base ~cur with
          | Ok d ->
              Printf.bprintf b "--- %s ---\n%s" app (Perf.Diffprof.render d)
          | Error e -> Printf.bprintf b "--- %s ---\ndiff failed: %s\n" app e)
      | None, _ ->
          Printf.bprintf b "--- %s ---\nno baseline profile %s\n" app
            (folded_file dir app)
      | _, None -> Printf.bprintf b "--- %s ---\nno current profile\n" app)
    apps;
  Buffer.contents b

(* The only suite gate. One instrumented run per app feeds every check:
   the per-app checks of Perf.Gate (soundness, artifacts, the fusion
   differential, replay), then the zero-tolerance counter comparison
   against the baseline. *)
let gate_cmd dir out report quiet =
  let failed = Buffer.create 256 in
  let results =
    List.filter_map
      (fun (a : Apps.Suite.app) ->
        let name = a.Apps.Suite.a_name in
        match Perf.Scenario.run_app a with
        | exception e ->
            Printf.bprintf failed "%s: analysis or run failed: %s\n" name
              (Printexc.to_string e);
            None
        | r ->
            (match Perf.Gate.failures a r with
            | [] ->
                if not quiet then
                  Printf.printf
                    "%-10s status %-3d %5d syscalls %6d records  ok\n" name
                    (r.Perf.Scenario.ar_status lsr 8)
                    (Observe.Metrics.total_calls
                       (Observe.Sink.metrics r.Perf.Scenario.ar_sink))
                    (Array.length
                       r.Perf.Scenario.ar_trace.Replay.Trace.tr_events)
            | fs -> List.iter (Printf.bprintf failed "%s: %s\n" name) fs);
            Some r)
      Apps.Suite.all
  in
  let model, profiles = Perf.Scenario.model results in
  (match out with
  | Some f -> write_file f (Perf.Model.to_json model)
  | None -> ());
  let base =
    match Perf.Model.load (det_file dir) with
    | Ok m -> m
    | Error e ->
        Printf.eprintf
          "waliperf: no usable baseline (%s: %s)\n\
           run `waliperf baseline update` and commit %s\n"
          (det_file dir) e dir;
        exit 1
  in
  let rows = Perf.Baseline.compare_runs ~base ~cur:model () in
  let drift = Perf.Baseline.counter_drift rows in
  if drift = [] && Buffer.length failed = 0 then begin
    let msg =
      Printf.sprintf
        "waliperf: %d apps sound, artifacts valid, fused = unfused, replays \
         converged; %d deterministic metrics across %d scenarios match the \
         baseline\n"
        (List.length results) (List.length rows)
        (List.length model.Perf.Model.b_scenarios)
    in
    (match report with Some f -> write_file f ("no drift\n" ^ msg) | None -> ());
    if quiet then print_string msg
    else print_string (Perf.Baseline.render ~all:true rows ^ msg);
    exit 0
  end
  else begin
    let body =
      Buffer.contents failed
      ^
      if drift = [] then ""
      else
        Perf.Baseline.render rows
        ^ Printf.sprintf
            "waliperf: %d deterministic counter(s) drifted from the baseline\n\
             (a deliberate change? run `waliperf baseline update` and commit)\n"
            (List.length drift)
        ^ gate_diffs dir drift profiles
    in
    (match report with Some f -> write_file f body | None -> ());
    prerr_string body;
    exit 1
  end

(* ---- cmdliner plumbing ---- *)

let dir_t =
  Arg.(value & opt string default_dir
       & info [ "dir" ] ~docv:"DIR" ~doc:"Baseline directory.")

let out_t =
  Arg.(value & opt (some string) None
       & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the wali-bench JSON to $(docv).")

let report_t =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Write the comparison + flamegraph-diff report to $(docv).")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-metric lines.")

let floor_t =
  Arg.(value & opt float 5.0
       & info [ "floor" ] ~docv:"PCT"
           ~doc:"Relative tolerance floor for wall metrics, percent.")

let all_t =
  Arg.(value & flag & info [ "all" ] ~doc:"Include unchanged rows.")

let top_t =
  Arg.(value & opt int 10
       & info [ "top" ] ~docv:"N" ~doc:"Show the top $(docv) changed rows.")

let pos_file n docv = Arg.(required & pos n (some string) None & info [] ~docv)

let no_fuse_t =
  Arg.(value & flag
       & info [ "no-fuse" ]
           ~doc:"Disable the macro-op fusion pass (plain single-op dispatch).")

let walls_t =
  Arg.(value & flag
       & info [ "walls" ]
           ~doc:
             "Also measure host wall-clock per app (min-of-5 with MAD band). \
              Non-deterministic: never part of the gate or baselines.")

let run_c =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the deterministic scenario suite and emit wali-bench v1 JSON")
    Term.(const run_cmd $ no_fuse_t $ walls_t $ out_t)

let compare_c =
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two wali-bench runs: counters at zero tolerance, wall \
          metrics against their noise bands")
    Term.(const compare_cmd $ floor_t $ all_t
          $ pos_file 0 "BASELINE.json" $ pos_file 1 "CURRENT.json")

let diff_c =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Differential profile: diff two folded-stack dumps and attribute \
          the delta to frames and syscall leaves")
    Term.(const diff_cmd $ top_t $ pos_file 0 "BASE.folded" $ pos_file 1 "CUR.folded")

let baseline_update_c =
  Cmd.v
    (Cmd.info "update"
       ~doc:"Re-measure and overwrite the committed baselines")
    Term.(const baseline_cmd $ dir_t)

let baseline_c =
  Cmd.group (Cmd.info "baseline" ~doc:"Manage the committed baseline store")
    [ baseline_update_c ]

let gate_c =
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Run every bundled app once with all hooks on; fail on any \
          soundness escape, malformed artifact, fusion or replay \
          divergence, or counter drift from the committed baseline \
          (naming the responsible frames via the flamegraph diff)")
    Term.(const gate_cmd $ dir_t $ out_t $ report_t $ quiet_t)

let cmd =
  Cmd.group
    (Cmd.info "waliperf"
       ~doc:
         "Machine-readable benchmarks, baselines, regression gates and \
          differential profiles")
    [ run_c; compare_c; diff_c; baseline_c; gate_c ]

let () = exit (Cmd.eval cmd)
