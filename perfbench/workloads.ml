(** The three workloads, each a seeded set of guest programs that one
    iteration runs once, from kernel boot to exit, with the output check. *)

type job = {
  j_app : string;
  j_binary : string;
  j_argv : string list;
  j_stdin : string;
  j_setup : Kernel.Task.kernel -> unit; (* files the program expects *)
  j_expect : string list; (* substrings the console output must contain *)
  j_counts : (string * int) list;
      (* exact per-syscall counts the WALI boundary must see *)
}

type t = {
  w_name : string;
  w_warmup : int; (* iterations run during set-up *)
  w_jobs : iter:int -> job list;
      (* the program set of iteration [iter]; coldstart's differs per
         iteration, the others' is the same every time *)
}

let names = [ "apps"; "syscall"; "coldstart" ]

let app name =
  match Apps.Suite.find name with
  | Some a -> a
  | None -> invalid_arg ("perfbench: no suite app " ^ name)

(* Each app's argv and the output that argv must produce. The sizes make
   every app run at least 10 ms on a 2-core x86-64 container. *)
let apps_mix ~calc_line ~calc_script : (string * string list * string list) list =
  let kvd_n = 50 and minidb_n = 150 and mqttc_n = 100 in
  [
    ("zpack", [ "zpack"; "3" ], [ "in=4096 out=86 ok=1" ]);
    ("calc", [ "calc"; "-e"; calc_script ], [ calc_line ]);
    ("crypt", [ "crypt"; "3" ], [ "pending=100"; "digest=" ]);
    ( "kvd",
      [ "kvd"; "bench"; string_of_int kvd_n ],
      [ "kvd: ready";
        Printf.sprintf "ops=%d hits=%d" (2 * kvd_n) kvd_n;
        "kvd: bye" ] );
    (* minidb's bench adds [atoi(vbuf + 6)] per found key, and vbuf still
       holds the last value inserted, "value-<7(n-1)>": the check is
       n * 7(n-1) exactly when every get hits *)
    ( "minidb",
      [ "minidb"; "bench"; string_of_int minidb_n ],
      [ Printf.sprintf "rows=%d check=%ld" minidb_n
          (Int32.of_int (minidb_n * 7 * (minidb_n - 1))) ] );
    ( "mqttc",
      [ "mqttc"; string_of_int mqttc_n ],
      [ Printf.sprintf "published=%d echoed=%d" mqttc_n mqttc_n ] );
  ]

let calc_iters = 80

let coldstart_apps = [ "minish"; "mk"; "sshd-lite"; "edlite"; "evloop"; "tui"; "ltp" ]

let syscall_trips = 120

let of_app (a : Apps.Suite.app) ~binary ~argv ~expect =
  {
    j_app = a.Apps.Suite.a_name;
    j_binary = binary;
    j_argv = argv;
    j_stdin = a.Apps.Suite.a_stdin;
    j_setup = a.Apps.Suite.a_setup;
    j_expect = expect;
    j_counts = [];
  }

(** Compile the workload's MiniC sources and generate its seeded inputs:
    the set-up work, apart from warm-up. *)
let make name ~seed : t =
  match name with
  | "apps" ->
      let calc_script, calc_line = Gen.calc_script ~seed ~iters:calc_iters in
      let jobs =
        apps_mix ~calc_line ~calc_script
        |> Gen.shuffle (Gen.rng ~seed ~salt:3)
        |> List.map (fun (n, argv, expect) ->
               let a = app n in
               of_app a ~binary:(Minic.to_wasm_binary a.Apps.Suite.a_source) ~argv
                 ~expect)
      in
      { w_name = name; w_warmup = 2; w_jobs = (fun ~iter:_ -> jobs) }
  | "syscall" ->
      let calls = Gen.body ~seed in
      let job =
        {
          j_app = "syscall";
          j_binary = Minic.to_wasm_binary (Gen.guest_source calls);
          j_argv = [ "syscall"; string_of_int syscall_trips ];
          j_stdin = "";
          j_setup = Apps.Suite.no_setup;
          j_expect = [ Gen.expected_line calls ~trips:syscall_trips ];
          j_counts = Gen.expected_counts calls ~trips:syscall_trips;
        }
      in
      { w_name = name; w_warmup = 2; w_jobs = (fun ~iter:_ -> [ job ]) }
  | "coldstart" ->
      let base =
        List.map
          (fun n ->
            let a = app n in
            (a, Minic.to_wasm_binary a.Apps.Suite.a_source))
          coldstart_apps
      in
      let jobs ~iter =
        List.mapi
          (fun i (a, bin) ->
            of_app a
              ~binary:(Gen.with_nonce bin (Printf.sprintf "%d/%d/%d" seed iter i))
              ~argv:a.Apps.Suite.a_argv ~expect:a.Apps.Suite.a_expect)
          base
      in
      (* warm-up iterations use negative numbers, so no measured
         iteration reuses a binary the warm-up already loaded *)
      { w_name = name; w_warmup = 2; w_jobs = jobs }
  | _ -> invalid_arg ("perfbench: unknown workload " ^ name)

(** A fresh kernel with the job's files and console input staged. *)
let boot (j : job) : Kernel.Task.kernel =
  let kernel = Kernel.Task.boot () in
  j.j_setup kernel;
  if j.j_stdin <> "" then begin
    Kernel.Task.console_feed kernel j.j_stdin;
    Kernel.Pipe.drop_writer kernel.Kernel.Task.console_in
  end;
  kernel

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(** The output oracle: exit status 0, every expected string present, and
    the exact per-syscall counts when the job has them. *)
let check (j : job) ~status ~output ~(calls : string -> int) : bool =
  status = 0
  && List.for_all (fun sub -> contains ~sub output) j.j_expect
  && List.for_all (fun (name, n) -> calls name = n) j.j_counts

let strace_calls tr name =
  match Wali.Strace.info tr name with Some i -> i.Wali.Strace.i_calls | None -> 0

(** Run one job with every hook off, through the engine's one-call entry
    point; true when its output is correct. *)
let run_plain (j : job) : bool =
  let kernel = boot j in
  let trace = Wali.Strace.create () in
  let status, output, _ =
    Wali.Interface.run_program ~kernel ~trace ~binary:j.j_binary ~argv:j.j_argv
      ~env:[] ()
  in
  check j ~status ~output ~calls:(strace_calls trace)

(** The same run with an observability sink collecting metrics and the
    folded-stack profile. *)
let run_observed (j : job) : bool =
  let kernel = boot j in
  let trace = Wali.Strace.create () in
  let observe =
    Observe.Sink.create ~metrics:(Wali.Strace.metrics trace)
      { Observe.Sink.c_metrics = true; c_trace = false; c_profile = true }
  in
  let status, output, _ =
    Wali.Interface.run_program ~kernel ~trace ~observe ~binary:j.j_binary
      ~argv:j.j_argv ~env:[] ()
  in
  check j ~status ~output ~calls:(strace_calls trace)

(** The same run under the record/replay recorder. *)
let run_recorded (j : job) : bool =
  let kernel = boot j in
  let strace = Wali.Strace.create () in
  let r =
    Replay.Recorder.record ~kernel ~strace ~binary:j.j_binary ~argv:j.j_argv
      ~env:[] ()
  in
  check j ~status:r.Replay.Recorder.r_status ~output:r.Replay.Recorder.r_output
    ~calls:(strace_calls strace)

(** Instructions retired and syscalls made by one run of the job, counted
    by the engine's own observability sink and Strace, independently of
    the accountant. *)
let counts (j : job) : int * int =
  let kernel = boot j in
  let trace = Wali.Strace.create () in
  let observe =
    Observe.Sink.create ~metrics:(Wali.Strace.metrics trace) Observe.Sink.metrics_only
  in
  ignore
    (Wali.Interface.run_program ~kernel ~trace ~observe ~binary:j.j_binary
       ~argv:j.j_argv ~env:[] ());
  ( Int64.to_int (Observe.Sink.run_counters observe).Observe.Sink.rc_instructions,
    Wali.Strace.total_calls trace )
