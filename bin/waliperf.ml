(* waliperf — the performance observatory CLI and the suite gate
   (`dune build @gate`).

     dune exec bin/waliperf.exe -- gate --quiet -o BENCH_perf.json
     dune exec bin/waliperf.exe -- baseline update
     dune exec bin/waliperf.exe -- diff base.folded cur.folded

   `gate` runs every bundled app once, with the recorder, every
   observability pillar and the statically derived seccomp allowlist on,
   and checks each run (expected output, static ⊇ dynamic syscalls,
   well-formed trace/metrics/profile, fused = unfused recording, replay
   without divergence — see Perf.Gate). It then renders the baseline
   store from that run (deterministic.json and one folded profile per
   app, Perf.Baseline.files) and fails on any file that differs from
   bench/baselines/ by a byte. The counter table names the deterministic
   counters (instructions retired, syscall crossings, virtual-clock ns)
   that moved, and the diff of each changed app's folded-stack profile
   against its baseline names the responsible frames and syscalls. `-o`
   writes the counters as a `wali-bench v1` JSON document. `baseline
   update` is the deliberate way to accept a new truth: it runs the same
   checks and writes the same files only when every check passes. *)

open Cmdliner

let default_dir = "bench/baselines"

let write_file f s =
  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

(* ---- diff ---- *)

let diff_cmd top base_file cur_file =
  let slurp f =
    match Perf.Baseline.read_file f with
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

(* ---- gate ---- *)

(* Flamegraph-diff every changed app against its baseline profile; the
   responsible frames and syscall leaves name the behavior change. *)
let gate_diffs dir (apps : string list) (profiles : (string * string) list) :
    string =
  let b = Buffer.create 1024 in
  List.iter
    (fun app ->
      let base_file = Filename.concat dir (Perf.Baseline.folded_file app) in
      match (Perf.Baseline.read_file base_file, List.assoc_opt app profiles) with
      | Some base, Some cur -> (
          match Perf.Diffprof.diff ~base ~cur with
          | Ok d ->
              Printf.bprintf b "--- %s ---\n%s" app (Perf.Diffprof.render d)
          | Error e -> Printf.bprintf b "--- %s ---\ndiff failed: %s\n" app e)
      | None, _ ->
          Printf.bprintf b "--- %s ---\nno baseline profile %s\n" app base_file
      | _, None -> Printf.bprintf b "--- %s ---\nno current profile\n" app)
    apps;
  Buffer.contents b

(* The one instrumented run per app and the per-app checks of
   Perf.Gate (soundness, artifacts, the fusion differential, replay) on
   it: the runs, and one line per failure. *)
let check_apps ~quiet : Perf.Scenario.app_result list * string =
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
  (results, Buffer.contents failed)

(* ---- baseline update ---- *)

let baseline_cmd dir =
  let results, failed = check_apps ~quiet:true in
  if failed <> "" then begin
    prerr_string failed;
    Printf.eprintf "waliperf: a gate check failed; %s left as it was\n" dir;
    exit 1
  end;
  let files = Perf.Baseline.files (Perf.Scenario.model results) in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter (fun (f, s) -> write_file (Filename.concat dir f) s) files;
  Printf.printf "waliperf: baseline updated: %d files in %s\n"
    (List.length files) dir

(* The only suite gate: the per-app checks, then the run's baseline
   files against the committed ones, byte for byte. *)
let gate_cmd dir out report quiet =
  let results, failed = check_apps ~quiet in
  let ((model, profiles) as run) = Perf.Scenario.model results in
  (match out with
  | Some f -> write_file f (Perf.Model.to_json model)
  | None -> ());
  let files = Perf.Baseline.files run in
  let mismatches = Perf.Baseline.mismatches ~dir files in
  (* An unreadable deterministic.json is a mismatch already; the table
     then has no rows. *)
  let rows =
    match Perf.Model.load (Filename.concat dir Perf.Baseline.det_file) with
    | Ok base -> Perf.Baseline.compare_runs ~base ~cur:model
    | Error _ -> []
  in
  let drift = Perf.Baseline.counter_drift rows in
  if mismatches = [] && failed = "" then begin
    let msg =
      Printf.sprintf
        "waliperf: %d apps sound, outputs as expected, artifacts valid, \
         fused = unfused, replays converged; %d baseline files match, %d \
         deterministic metrics across %d scenarios\n"
        (List.length results) (List.length files) (List.length rows)
        (List.length model.Perf.Model.b_scenarios)
    in
    (match report with Some f -> write_file f ("no drift\n" ^ msg) | None -> ());
    if quiet then print_string msg
    else print_string (Perf.Baseline.render ~all:true rows ^ msg);
    exit 0
  end
  else begin
    (* the apps whose counters drifted ("app/NAME") or whose profile
       changed ("NAME.folded") *)
    let changed_apps =
      List.filter_map
        (fun (r : Perf.Baseline.row) ->
          let sc = r.Perf.Baseline.r_scenario in
          if String.starts_with ~prefix:"app/" sc then
            Some (String.sub sc 4 (String.length sc - 4))
          else None)
        drift
      @ List.filter_map
          (fun (f, _) -> Filename.chop_suffix_opt ~suffix:".folded" f)
          mismatches
      |> List.sort_uniq compare
    in
    let body =
      failed
      ^ String.concat ""
          (List.map
             (fun (f, why) ->
               Printf.sprintf "%s: %s\n" (Filename.concat dir f) why)
             mismatches)
      ^ (if drift = [] then "" else Perf.Baseline.render drift)
      ^ (if mismatches = [] then ""
         else
           Printf.sprintf
             "waliperf: %d baseline file(s) differ from this run, %d \
              deterministic counter(s) drifted\n\
              (a deliberate change? run `waliperf baseline update` and \
              commit)\n"
             (List.length mismatches) (List.length drift))
      ^ gate_diffs dir changed_apps profiles
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

let top_t =
  Arg.(value & opt int 10
       & info [ "top" ] ~docv:"N" ~doc:"Show the top $(docv) changed rows.")

let pos_file n docv = Arg.(required & pos n (some string) None & info [] ~docv)

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
       ~doc:
         "Run the gate's per-app checks and, when every one passes, \
          overwrite the committed baselines with the run's counters and \
          profiles")
    Term.(const baseline_cmd $ dir_t)

let baseline_c =
  Cmd.group (Cmd.info "baseline" ~doc:"Manage the committed baseline store")
    [ baseline_update_c ]

let gate_c =
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Run every bundled app once with all hooks on; fail on any \
          missing output, soundness escape, malformed artifact, fusion \
          or replay divergence, or baseline file that differs from the \
          committed one by a byte (naming the drifted counters and, via \
          the flamegraph diff, the responsible frames)")
    Term.(const gate_cmd $ dir_t $ out_t $ report_t $ quiet_t)

let cmd =
  Cmd.group
    (Cmd.info "waliperf"
       ~doc:
         "Machine-readable benchmarks, baselines, regression gates and \
          differential profiles")
    [ diff_c; baseline_c; gate_c ]

let () = exit (Cmd.eval cmd)
