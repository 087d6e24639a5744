(* walireplay — record, replay, inspect and reduce WALI syscall traces.

     dune exec bin/walireplay.exe -- record --app calc -o calc.trace
     dune exec bin/walireplay.exe -- replay calc.trace
     dune exec bin/walireplay.exe -- report calc.trace
     dune exec bin/walireplay.exe -- reduce big.trace -o small.trace --prefix 100

   Recording runs a bundled app (or a raw .wasm binary) exactly like the
   test suite does — same setup, same scripted stdin — and captures every
   event that crosses the thin interface. Replaying re-runs the module
   with the kernel swapped out for the log and reports the first
   divergence, if any. *)

open Cmdliner

type target = {
  t_name : string;
  t_binary : string;
  t_setup : Kernel.Task.kernel -> unit;
  t_stdin : string;
  t_argv : string list;
}

let target_of_app (a : Apps.Suite.app) =
  {
    t_name = a.Apps.Suite.a_name;
    t_binary = Apps.Suite.binary_of a;
    t_setup = a.Apps.Suite.a_setup;
    t_stdin = a.Apps.Suite.a_stdin;
    t_argv = a.Apps.Suite.a_argv;
  }

let target_of_file f =
  let binary =
    try In_channel.with_open_bin f In_channel.input_all
    with Sys_error e ->
      Printf.eprintf "walireplay: %s\n" e;
      exit 1
  in
  {
    t_name = Filename.basename f;
    t_binary = binary;
    t_setup = (fun _ -> ());
    t_stdin = "";
    t_argv = [ Filename.basename f ];
  }

let find_app name =
  match Apps.Suite.find name with
  | Some a -> a
  | None ->
      Printf.eprintf "walireplay: unknown app %s; available: %s\n" name
        (String.concat ", "
           (List.map (fun a -> a.Apps.Suite.a_name) Apps.Suite.all));
      exit 2

(* Record one target from a kernel booted the way Suite.run boots it. *)
let record_target (t : target) : Replay.Recorder.run =
  let kernel = Apps.Suite.boot ~setup:t.t_setup ~stdin:t.t_stdin () in
  Replay.Recorder.record ~app:t.t_name ~kernel ~binary:t.t_binary
    ~argv:t.t_argv ~env:[] ()

let load_trace file =
  match Replay.Trace.load file with
  | tr -> tr
  | exception Replay.Trace.Corrupt msg ->
      Printf.eprintf "walireplay: %s: corrupt trace: %s\n" file msg;
      exit 1
  | exception Replay.Trace.Bad_version v ->
      Printf.eprintf
        "walireplay: %s: trace format version %d, this build reads version %d\n"
        file v Replay.Trace.version;
      exit 1
  | exception Sys_error e ->
      Printf.eprintf "walireplay: %s\n" e;
      exit 1

(* ---- record ---- *)

let record_cmd file app out =
  let t =
    match (app, file) with
    | Some name, None -> target_of_app (find_app name)
    | None, Some f -> target_of_file f
    | _ ->
        prerr_endline "walireplay record: need exactly one of FILE.wasm or --app NAME";
        exit 2
  in
  let r = record_target t in
  let reduced = Replay.Reduce.reduce r.Replay.Recorder.r_trace in
  Replay.Trace.save out reduced;
  Printf.printf "%s: recorded %d events (%d bytes%s) to %s, exit status %d\n"
    t.t_name
    (Array.length reduced.Replay.Trace.tr_events)
    (Replay.Reduce.byte_size reduced)
    (let raw = Replay.Reduce.byte_size r.Replay.Recorder.r_trace in
     if raw > Replay.Reduce.byte_size reduced then
       Printf.sprintf ", %d raw" raw
     else "")
    out
    (r.Replay.Recorder.r_status lsr 8);
  exit 0

(* ---- replay ---- *)

let replay_cmd file app wasm no_digest trace_out metrics_out profile_out =
  let trace = load_trace file in
  let t =
    match (app, wasm) with
    | Some name, None -> target_of_app (find_app name)
    | None, Some f -> target_of_file f
    | None, None ->
        let recorded = trace.Replay.Trace.tr_header.Replay.Trace.h_app in
        if recorded = "" then begin
          prerr_endline
            "walireplay replay: trace has no app name; pass --app or --wasm";
          exit 2
        end
        else target_of_app (find_app recorded)
    | Some _, Some _ ->
        prerr_endline "walireplay replay: --app and --wasm are exclusive";
        exit 2
  in
  (* A replayed run regenerates observability artifacts from the log:
     same per-syscall outcomes, same virtual-clock timeline. *)
  let observe =
    if trace_out = None && metrics_out = None && profile_out = None then None
    else
      Some
        (Observe.Sink.create
           {
             Observe.Sink.c_metrics = metrics_out <> None;
             c_trace = trace_out <> None;
             c_profile = profile_out <> None;
           })
  in
  let o =
    Replay.Replayer.replay ~setup:t.t_setup ~check_digest:(not no_digest)
      ?observe ~trace ~binary:t.t_binary ()
  in
  (match observe with
  | None -> ()
  | Some ob ->
      let write_file f s =
        Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)
      in
      (match trace_out with
      | Some f -> write_file f (Observe.Sink.trace_json ob)
      | None -> ());
      (match metrics_out with
      | Some "-" -> print_string (Observe.Sink.metrics_json ob)
      | Some f -> write_file f (Observe.Sink.metrics_json ob)
      | None -> ());
      (match profile_out with
      | Some f -> write_file f (Observe.Sink.profile_folded ob)
      | None -> ()));
  (match o.Replay.Replayer.rp_divergence with
  | None ->
      Printf.printf "%s: replay converged: %d/%d records, exit status %d\n"
        t.t_name o.Replay.Replayer.rp_consumed o.Replay.Replayer.rp_total
        (o.Replay.Replayer.rp_status lsr 8);
      exit 0
  | Some d ->
      Printf.eprintf "%s: %s\n" t.t_name (Replay.Replayer.pp_divergence d);
      exit 1)

(* ---- report ---- *)

let report_cmd file =
  Replay.Report.print (load_trace file);
  exit 0

(* ---- reduce ---- *)

let reduce_cmd file out prefix =
  let trace = load_trace file in
  let before = Replay.Reduce.byte_size trace in
  let reduced = Replay.Reduce.reduce trace in
  let reduced =
    match prefix with
    | None -> reduced
    | Some n -> Replay.Reduce.truncate reduced ~n
  in
  Replay.Trace.save out reduced;
  Printf.printf "%s: %d bytes -> %d bytes (%d events%s)\n" out before
    (Replay.Reduce.byte_size reduced)
    (Array.length reduced.Replay.Trace.tr_events)
    (match prefix with
    | Some n -> Printf.sprintf ", truncated to first %d" n
    | None -> "");
  exit 0

(* ---- cmdliner wiring ---- *)

let file_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
let wasm_pos = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.wasm")

let app_t =
  Arg.(value & opt (some string) None
       & info [ "app" ] ~doc:"A bundled suite application.")

let out_t =
  Arg.(required & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let wasm_t =
  Arg.(value & opt (some string) None
       & info [ "wasm" ] ~docv:"FILE.wasm" ~doc:"Replay against this binary.")

let no_digest_t =
  Arg.(value & flag
       & info [ "no-digest-check" ]
           ~doc:"Replay even if the binary's digest differs from the one \
                 recorded in the trace header.")

let prefix_t =
  Arg.(value & opt (some int) None
       & info [ "prefix" ] ~docv:"N"
           ~doc:"Keep only the first N events (divergence bisection).")

let record_c =
  Cmd.v
    (Cmd.info "record" ~doc:"Record a run into a trace file")
    Term.(const record_cmd $ wasm_pos $ app_t $ out_t)

let trace_out_t =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Regenerate a Chrome trace-event JSON timeline from the \
                 replayed run into $(docv).")

let metrics_t =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Regenerate the metrics JSON dump from the replayed run \
                 into $(docv) (stdout when omitted or -).")

let profile_out_t =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Regenerate a folded-stack profile from the replayed \
                 run into $(docv).")

let replay_c =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a trace and report the first divergence")
    Term.(const replay_cmd $ file_pos $ app_t $ wasm_t $ no_digest_t
          $ trace_out_t $ metrics_t $ profile_out_t)

let report_c =
  Cmd.v
    (Cmd.info "report" ~doc:"Summarize a trace (per-syscall calls/errors/bytes)")
    Term.(const report_cmd $ file_pos)

let reduce_c =
  Cmd.v
    (Cmd.info "reduce" ~doc:"Shrink a trace (zero-run compression, --prefix)")
    Term.(const reduce_cmd $ file_pos $ out_t $ prefix_t)

let cmd =
  Cmd.group
    (Cmd.info "walireplay"
       ~doc:"Deterministic record/replay at the WALI boundary")
    [ record_c; replay_c; report_c; reduce_c ]

let () = exit (Cmd.eval cmd)
