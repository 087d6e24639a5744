(* walirun — the `iwasm`-style CLI: run a .wasm WALI binary (or a bundled
   suite app) on the engine over a freshly booted simulated kernel.

     dune exec bin/walirun.exe -- --app minish -- -c "echo hi"
     dune exec bin/walirun.exe -- program.wasm arg1 arg2
     WALI_VERBOSE-style tracing: --trace; policies: --deny read,write;
     statically derived allowlist: --derive-policy (see bin/waliscan.ml) *)

open Cmdliner

let run_cmd file app trace deny derive poll record replay trace_out
    metrics_out profile_out top args =
  (* with --app, every positional is an application argument *)
  let file, args =
    match app with
    | Some _ -> (None, (match file with Some f -> f :: args | None -> args))
    | None -> (file, args)
  in
  let binary =
    match (file, app) with
    | Some f, _ -> In_channel.with_open_bin f In_channel.input_all
    | None, Some name -> (
        match Apps.Suite.find name with
        | Some a -> Apps.Suite.binary_of a
        | None ->
            Printf.eprintf "unknown app %s; available: %s\n" name
              (String.concat ", "
                 (List.map (fun a -> a.Apps.Suite.a_name) Apps.Suite.all));
            exit 2)
    | None, None ->
        prerr_endline "need a .wasm file or --app NAME";
        exit 2
  in
  let tracer = Wali.Strace.create ~verbose:trace () in
  (* One sink serves all three observability flags. It is built over the
     strace tracer's metrics registry: an engine has one registry (see
     Engine.create). *)
  let observe =
    if trace_out = None && metrics_out = None && profile_out = None && not top
    then None
    else
      Some
        (Observe.Sink.create
           ~metrics:(Wali.Strace.metrics tracer)
           {
             Observe.Sink.c_metrics = metrics_out <> None || top;
             c_trace = trace_out <> None;
             c_profile = profile_out <> None;
           })
  in
  let write_file f s =
    Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)
  in
  let dump_observe () =
    match observe with
    | None -> ()
    | Some o ->
        (match trace_out with
        | Some f -> write_file f (Observe.Sink.trace_json o)
        | None -> ());
        (match metrics_out with
        | Some "-" -> print_string (Observe.Sink.metrics_json o)
        | Some f -> write_file f (Observe.Sink.metrics_json o)
        | None -> ());
        (match profile_out with
        | Some f -> write_file f (Observe.Sink.profile_folded o)
        | None -> ());
        if top then prerr_string (Observe.Sink.report o)
  in
  let policy =
    if not derive then Wali.Seccomp.allow_all ()
    else
      match Analysis.Reach.analyze_binary binary with
      | summary ->
          if trace then
            Printf.eprintf "derived allowlist (%d): %s\n"
              (List.length (Analysis.Reach.allowlist summary))
              (String.concat " " (Analysis.Reach.allowlist summary));
          Analysis.Reach.policy summary
      | exception e ->
          Printf.eprintf "walirun: --derive-policy analysis failed: %s\n"
            (Printexc.to_string e);
          exit 2
  in
  (* --deny rules land on top of the derived/open policy; rules prepend,
     so the most recently added (the deny) wins. *)
  List.iter (fun name -> Wali.Seccomp.deny policy name ()) deny;
  let poll_scheme =
    match poll with
    | "none" -> Wasm.Code.Poll_none
    | "funcs" -> Wasm.Code.Poll_funcs
    | "every" -> Wasm.Code.Poll_every
    | _ -> Wasm.Code.Poll_loops
  in
  let argv0 =
    match (file, app) with
    | Some f, _ -> Filename.basename f
    | _, Some a -> a
    | _ -> "wasm"
  in
  (* the app's files (live, record and replay paths) and scripted stdin
     (live and record), the same way the test suite drives these
     programs *)
  let suite_app = Option.bind app Apps.Suite.find in
  let setup =
    match suite_app with
    | Some a -> a.Apps.Suite.a_setup
    | None -> Apps.Suite.no_setup
  in
  let boot () =
    Apps.Suite.boot ~setup
      ?stdin:(Option.map (fun a -> a.Apps.Suite.a_stdin) suite_app)
      ()
  in
  (* with --app and no explicit arguments, use the app's scripted argv
     (the same one the test suite and walireplay drive it with) *)
  let argv =
    match (args, suite_app) with
    | [], Some a -> a.Apps.Suite.a_argv
    | _ -> argv0 :: args
  in
  let env = [ "HOME=/home/user"; "TERM=vt100" ] in
  let print_profile () =
    if trace then begin
      Printf.eprintf "--- syscall profile ---\n";
      List.iter
        (fun (n, c) -> Printf.eprintf "%6d %s\n" c n)
        (Wali.Strace.profile tracer)
    end
  in
  match (record, replay) with
  | Some _, Some _ ->
      prerr_endline "walirun: --record and --replay are exclusive";
      exit 2
  | None, Some trace_file ->
      (* swap the simulated kernel out for the log *)
      let tr =
        match Replay.Trace.load trace_file with
        | tr -> tr
        | exception Replay.Trace.Corrupt msg ->
            Printf.eprintf "walirun: %s: corrupt trace: %s\n" trace_file msg;
            exit 1
        | exception Replay.Trace.Bad_version v ->
            Printf.eprintf "walirun: %s: unsupported trace version %d\n"
              trace_file v;
            exit 1
      in
      let o =
        Replay.Replayer.replay ~setup ~trace:tr ~binary ~strace:tracer ?observe ()
      in
      dump_observe ();
      (match o.Replay.Replayer.rp_divergence with
      | None ->
          let code = Kernel.Ktypes.shell_exit_code o.Replay.Replayer.rp_status in
          Printf.printf "replay converged: %d/%d records, exit status %d\n"
            o.Replay.Replayer.rp_consumed o.Replay.Replayer.rp_total code;
          exit code
      | Some d ->
          prerr_endline (Replay.Replayer.pp_divergence d);
          exit 1)
  | Some trace_file, None ->
      let kernel = boot () in
      let r =
        Replay.Recorder.record
          ~app:(Option.value app ~default:"")
          ~poll_scheme ~strace:tracer ~policy ~kernel ~binary ~argv ~env
          ?observe ()
      in
      let reduced = Replay.Reduce.reduce r.Replay.Recorder.r_trace in
      Replay.Trace.save trace_file reduced;
      print_string r.Replay.Recorder.r_output;
      Printf.eprintf "recorded %d events (%d bytes) to %s\n"
        (Array.length reduced.Replay.Trace.tr_events)
        (Replay.Reduce.byte_size reduced)
        trace_file;
      dump_observe ();
      print_profile ();
      exit (Kernel.Ktypes.shell_exit_code r.Replay.Recorder.r_status)
  | None, None ->
      let kernel = boot () in
      let status, out, result =
        Wali.Interface.run_program ~kernel ~trace:tracer ~policy ~poll_scheme
          ?observe ~binary ~argv ~env ()
      in
      print_string out;
      (match result with
      | Some (Wasm.Interp.R_trap msg) -> Printf.eprintf "trap: %s\n" msg
      | _ -> ());
      dump_observe ();
      print_profile ();
      exit (Kernel.Ktypes.shell_exit_code status)

let file_t =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.wasm")

let args_t = Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS")

let app_t =
  Arg.(value & opt (some string) None & info [ "app" ] ~doc:"Run a bundled suite application.")

let trace_t =
  Arg.(value & flag & info [ "trace"; "t" ] ~doc:"Print each syscall (WALI_VERBOSE).")

let deny_t =
  Arg.(value & opt (list string) [] & info [ "deny" ] ~doc:"Deny these syscalls (seccomp-like policy).")

let derive_t =
  Arg.(value & flag
       & info [ "derive-policy" ]
           ~doc:"Run under the minimal allowlist derived by static \
                 syscall-reachability analysis (default-deny).")

let poll_t =
  Arg.(value & opt string "loops" & info [ "poll" ] ~doc:"Safepoint scheme: none|loops|funcs|every.")

let record_t =
  Arg.(value & opt (some string) None
       & info [ "record" ] ~docv:"FILE"
           ~doc:"Run live and record every syscall, signal delivery and \
                 exit into $(docv) for later deterministic replay.")

let replay_t =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay the run recorded in $(docv) with the kernel \
                 swapped out for the log; fails on the first divergence.")

let trace_out_t =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON timeline of the run \
                 (syscall spans, scheduler quanta, signals, process \
                 lifecycle) to $(docv); load it in Perfetto or \
                 chrome://tracing.")

let metrics_t =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Dump run metrics as JSON (per-syscall latency \
                 histograms with percentiles, kernel and engine \
                 counters) to $(docv), or stdout when $(docv) is \
                 omitted or -.")

let profile_out_t =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write a folded-stack CPU profile of the run to \
                 $(docv); feed it to flamegraph.pl or speedscope.")

let top_t =
  Arg.(value & flag
       & info [ "top" ]
           ~doc:"Print a walitop-style summary after the run: run \
                 totals, syscalls sorted by time, kernel counters.")

let cmd =
  Cmd.v
    (Cmd.info "walirun" ~doc:"Run WebAssembly binaries over the WALI kernel interface")
    Term.(const run_cmd $ file_t $ app_t $ trace_t $ deny_t $ derive_t
          $ poll_t $ record_t $ replay_t $ trace_out_t $ metrics_t
          $ profile_out_t $ top_t $ args_t)

let () = exit (Cmd.eval cmd)
