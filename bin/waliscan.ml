(* waliscan — static syscall-reachability analyzer for WALI modules.

   Prints, per module: the import classification, the per-export
   reachability sets, the derived minimal seccomp allowlist, and lint
   diagnostics. With --verify it also runs the module under the derived
   policy and diffs the dynamic strace profile against the static set —
   any escape or denial is an analyzer soundness bug and fails the run.

     dune exec bin/waliscan.exe -- program.wasm
     dune exec bin/waliscan.exe -- --app minish --verify
     dune exec bin/waliscan.exe -- --all --verify --quiet
     dune exec bin/waliscan.exe -- --policy program.wasm    # allowlist only *)

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
      Printf.eprintf "waliscan: %s\n" e;
      exit 1
  in
  {
    t_name = Filename.basename f;
    t_binary = binary;
    t_setup = (fun _ -> ());
    t_stdin = "";
    t_argv = [ Filename.basename f ];
  }

(* Analyze one target; returns false on analyzer error or failed verify. *)
let scan ~quiet ~policy_only ~verify (t : target) : bool =
  match Analysis.Reach.analyze_binary ~name:t.t_name t.t_binary with
  | exception e ->
      Printf.eprintf "waliscan: %s: analysis failed: %s\n" t.t_name
        (Printexc.to_string e);
      false
  | summary ->
      let lints = Analysis.Lint.lint summary in
      if policy_only then print_string (Analysis.Report.policy_lines summary)
      else if not quiet then Analysis.Report.print ~lints summary;
      if not verify then true
      else begin
        let r =
          (Analysis.Crosscheck.run ~setup:t.t_setup ~stdin:t.t_stdin
             ~argv:t.t_argv ~summary ~binary:t.t_binary ())
            .Analysis.Crosscheck.cc_verdict
        in
        if Analysis.Crosscheck.ok r then begin
          (* keep --policy output pipeable: verdict details stay off stdout *)
          if (not quiet) && not policy_only then
            Printf.printf
              "  verify ok: %d dynamic ⊆ %d static syscalls, 0 denials\n"
              (List.length r.Analysis.Crosscheck.cc_dynamic)
              (List.length r.Analysis.Crosscheck.cc_static);
          true
        end
        else begin
          Printf.eprintf
            "waliscan: %s: SOUNDNESS BUG: static set is not a superset of \
             the dynamic profile\n"
            t.t_name;
          List.iter
            (Printf.eprintf "  escaped syscall (traced, not in static set): %s\n")
            r.Analysis.Crosscheck.cc_escaped;
          List.iter
            (fun (n, c) ->
              Printf.eprintf "  denied under derived policy: %s (%d)\n" n c)
            r.Analysis.Crosscheck.cc_denied;
          false
        end
      end

let scan_cmd files app all_apps policy_only verify quiet =
  let targets =
    List.map target_of_file files
    @ (match app with
      | None -> []
      | Some name -> (
          match Apps.Suite.find name with
          | Some a -> [ target_of_app a ]
          | None ->
              Printf.eprintf "unknown app %s; available: %s\n" name
                (String.concat ", "
                   (List.map (fun a -> a.Apps.Suite.a_name) Apps.Suite.all));
              exit 2))
    @ (if all_apps then List.map target_of_app Apps.Suite.all else [])
  in
  if targets = [] then begin
    prerr_endline "waliscan: need FILE.wasm, --app NAME or --all";
    exit 2
  end;
  let ok =
    List.fold_left
      (fun acc t -> scan ~quiet ~policy_only ~verify t && acc)
      true targets
  in
  if quiet && ok && verify then
    Printf.printf "waliscan: %d module%s verified: static ⊇ dynamic, 0 denials\n"
      (List.length targets)
      (if List.length targets = 1 then "" else "s");
  exit (if ok then 0 else 1)

let files_t = Arg.(value & pos_all string [] & info [] ~docv:"FILE.wasm")

let app_t =
  Arg.(value & opt (some string) None
       & info [ "app" ] ~doc:"Analyze a bundled suite application.")

let all_t =
  Arg.(value & flag
       & info [ "all" ] ~doc:"Analyze every bundled suite application.")

let policy_t =
  Arg.(value & flag
       & info [ "policy" ]
           ~doc:"Print only the derived allowlist, one syscall per line.")

let verify_t =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run each module under its derived policy and fail if the \
                 dynamic syscall profile escapes the static set.")

let quiet_t =
  Arg.(value & flag
       & info [ "quiet"; "q" ] ~doc:"Suppress per-module reports.")

let cmd =
  Cmd.v
    (Cmd.info "waliscan"
       ~doc:"Derive minimal seccomp policies from Wasm modules, statically")
    Term.(const scan_cmd $ files_t $ app_t $ all_t $ policy_t $ verify_t $ quiet_t)

let () = exit (Cmd.eval cmd)
