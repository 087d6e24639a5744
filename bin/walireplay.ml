(* walireplay — inspect and reduce WALI syscall traces.

     dune exec bin/walireplay.exe -- report calc.trace
     dune exec bin/walireplay.exe -- reduce big.trace -o small.trace --prefix 100

   Recording and replaying are walirun's (`--record`, `--replay`). *)

open Cmdliner

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

let out_t =
  Arg.(required & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let prefix_t =
  Arg.(value & opt (some int) None
       & info [ "prefix" ] ~docv:"N"
           ~doc:"Keep only the first N events (divergence bisection).")

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
    (Cmd.info "walireplay" ~doc:"Inspect and reduce WALI boundary traces")
    [ report_c; reduce_c ]

let () = exit (Cmd.eval cmd)
