(* walirun — the `iwasm`-style CLI and the one runner: run a .wasm WALI
   binary (or a bundled suite app) on the engine over a freshly booted
   simulated kernel, record the run, or replay a recording.

     dune exec bin/walirun.exe -- --app minish -- -c "echo hi"
     dune exec bin/walirun.exe -- program.wasm arg1 arg2
     dune exec bin/walirun.exe -- --app calc --record calc.trace
     dune exec bin/walirun.exe -- --replay calc.trace
     WALI_VERBOSE-style tracing: --trace; policies: --deny read,write;
     statically derived allowlist: --derive-policy (see bin/waliscan.ml) *)

open Cmdliner

(* walirun's exit code when every guest task is blocked and nothing is
   left to wake one (a deadlock); documented in the man page. *)
let deadlock_exit = 126

(* walirun's exit code when FILE (or the app) cannot be loaded: it cannot
   be read, does not decode, does not validate or does not link against
   WALI; documented in the man page. *)
let load_exit = 127

let or_load_error what run =
  try run () with
  | Wasm.Binary.Decode_error e | Wasm.Code.Invalid e | Wasm.Link.Link_error e ->
      Printf.eprintf "walirun: cannot load %s: %s\n" what e;
      exit load_exit

let read_binary f =
  try In_channel.with_open_bin f In_channel.input_all
  with Sys_error e ->
    Printf.eprintf "walirun: cannot load %s\n" e;
    exit load_exit

let load_trace file =
  match Replay.Trace.load file with
  | tr -> tr
  | exception Replay.Trace.Corrupt msg ->
      Printf.eprintf "walirun: %s: corrupt trace: %s\n" file msg;
      exit 1
  | exception Replay.Trace.Bad_version v ->
      Printf.eprintf "walirun: %s: unsupported trace version %d\n" file v;
      exit 1
  | exception Sys_error e ->
      Printf.eprintf "walirun: %s\n" e;
      exit 1

let run_cmd file app trace deny derive poll record replay trace_out
    metrics_out profile_out top args =
  (* with --app, every positional is an application argument *)
  let file, args =
    match app with
    | Some _ -> (None, (match file with Some f -> f :: args | None -> args))
    | None -> (file, args)
  in
  if record <> None && replay <> None then begin
    prerr_endline "walirun: --record and --replay are exclusive";
    exit 2
  end;
  let replayed = Option.map load_trace replay in
  (* a replay with neither FILE nor --app runs the suite app its trace
     header names *)
  let app =
    match (app, file, replayed) with
    | None, None, Some tr ->
        let named = tr.Replay.Trace.tr_header.Replay.Trace.h_app in
        if named = "" then begin
          prerr_endline "walirun: the trace names no suite app; pass FILE.wasm or --app";
          exit 2
        end;
        Some named
    | _ -> app
  in
  let suite_app =
    Option.map
      (fun name ->
        match Apps.Suite.find name with
        | Some a -> a
        | None ->
            Printf.eprintf "unknown app %s; available: %s\n" name
              (String.concat ", "
                 (List.map (fun a -> a.Apps.Suite.a_name) Apps.Suite.all));
            exit 2)
      app
  in
  (* A suite app boots, is fed and runs exactly as the suite and the
     gate drive it (Perf.Scenario.record): its files, its scripted stdin,
     its argv unless arguments are given, and an empty environment. So
     `--app calc --record` writes test/golden/app_calc.trace byte for
     byte. *)
  let binary, setup, stdin, argv, env =
    match (file, suite_app) with
    | Some f, _ ->
        ( read_binary f,
          Apps.Suite.no_setup,
          "",
          Filename.basename f :: args,
          [ "HOME=/home/user"; "TERM=vt100" ] )
    | None, Some a ->
        ( Apps.Suite.binary_of a,
          a.Apps.Suite.a_setup,
          a.Apps.Suite.a_stdin,
          (if args = [] then a.Apps.Suite.a_argv else a.Apps.Suite.a_name :: args),
          [] )
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
  let boot () = Apps.Suite.boot ~setup ~stdin () in
  let print_profile () =
    if trace then begin
      Printf.eprintf "--- syscall profile ---\n";
      List.iter
        (fun (n, c) -> Printf.eprintf "%6d %s\n" c n)
        (Wali.Strace.profile tracer)
    end
  in
  (* A deadlock ends the run: print what the guest wrote, name the
     blocked fibers, exit [deadlock_exit]. *)
  let or_deadlock kernel run =
    match run () with
    | r -> r
    | exception Fiber.Deadlock names ->
        print_string (Kernel.Task.console_output kernel);
        Printf.eprintf "walirun: deadlock: every task is blocked (%s)\n"
          (String.concat ", " (List.sort compare names));
        exit deadlock_exit
  in
  or_load_error (Option.value file ~default:(Option.value app ~default:"")) @@ fun () ->
  match (record, replayed) with
  | _, Some tr ->
      (* swap the simulated kernel out for the log *)
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
        or_deadlock kernel (fun () ->
            Replay.Recorder.record
              ~app:(Option.value app ~default:"")
              ~poll_scheme ~strace:tracer ~policy ~kernel ~binary ~argv ~env
              ?observe ())
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
        or_deadlock kernel (fun () ->
            Wali.Interface.run_program ~kernel ~trace:tracer ~policy ~poll_scheme
              ?observe ~binary ~argv ~env ())
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
                 swapped out for the log; fails on the first divergence. \
                 With neither FILE.wasm nor --app, replays the suite app \
                 the trace header names.")

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
    (Cmd.info "walirun" ~doc:"Run WebAssembly binaries over the WALI kernel interface"
       ~exits:
         (Cmd.Exit.info deadlock_exit
            ~doc:"when every task of the guest is blocked and nothing is left \
                  to wake one (a deadlock); the blocked fibers are named on \
                  standard error"
         :: Cmd.Exit.info load_exit
              ~doc:"when the program cannot be loaded: it cannot be read, \
                    does not decode, does not validate or does not link \
                    against WALI; the reason is printed on standard error"
         :: Cmd.Exit.defaults))
    Term.(const run_cmd $ file_t $ app_t $ trace_t $ deny_t $ derive_t
          $ poll_t $ record_t $ replay_t $ trace_out_t $ metrics_t
          $ profile_out_t $ top_t $ args_t)

let () = exit (Cmd.eval cmd)
