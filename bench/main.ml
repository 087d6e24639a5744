(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation.

     fig2   syscall profile across the application suite
     fig3   Linux syscall similarity across ISAs
     table1 porting effort (WALI / WASIX / WASI)
     table2 intrinsic syscall overhead (hook, marshalling, kernel)
     table3 cost of async-signal safepoint polling schemes
     fig7   runtime breakdown (app / WALI layer / kernel)
     fig8   virtualization comparison: memory + execution time sweeps
     fuzz   module load fuzzer over mutants of the suite's binaries
            (not part of `all`)

   `bench/main.exe all` runs everything (the default). Wall-clock numbers
   use the host monotonic clock as min-of-N with a MAD noise band
   (lib/perf); shapes, not absolute values, are the reproduction target
   (see EXPERIMENTS.md); Table 2 and Fig 7 take theirs from perfbench's
   probe and layer accountant. `--json=FILE` additionally writes every
   scenario's numbers as a `wali-bench v1` document. A wrong result (a
   replay that diverges, a probed call or an app run that fails its
   check, a Fig 8a method that exits non-zero or prints other than the
   native run) keeps its section out of the document and makes the run
   exit 1. *)

let now = Monotonic_clock.now

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* A section (begun by [header]) that finds a wrong result calls [fail]:
   the section's numbers stay out of the document and the run exits 1. *)
let failed = ref false
let section_failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "!! %s\n%!" msg;
      failed := true;
      section_failed := true)
    fmt

let header title =
  section_failed := false;
  Printf.printf "\n=== %s ===\n%!" title

(* ---- structured results (wali-bench v1) ---- *)

(* Every fig/table scenario also records its numbers here; deterministic
   quantities as counters, host timings as wall metrics carrying their
   sample count and noise band. *)
let scenarios : (string * (string * Perf.Model.metric) list) list ref = ref []

let emit name metrics =
  if not !section_failed then scenarios := (name, metrics) :: !scenarios

let c_int v = Perf.Model.counter (float_of_int v)

let write_json file =
  let model = Perf.Model.make ~suite:"wali-bench" !scenarios in
  Perf.Model.save file model;
  Printf.printf "\nwrote %d scenarios to %s\n"
    (List.length model.Perf.Model.b_scenarios)
    file

(* ---- wall-clock sampling ---- *)

(* Min-of-N with a MAD noise band instead of a single noisy shot: the
   minimum of [n] timed batches estimates the uncontended cost, the MAD
   is the band (Perf.Stats). One warmup batch replaces the old 10%
   pre-roll. *)
let time_per_call ?(iters = 20000) ?(n = 5) (f : unit -> unit) : Perf.Stats.t =
  Perf.Stats.measure ~n (fun () ->
      let t0 = now () in
      for _ = 1 to iters do
        f ()
      done;
      Int64.to_float (Int64.sub (now ()) t0) /. float_of_int iters)

(* Whole-run timing in ms, same estimator. *)
let time_ms ?(warmup = 1) ?(n = 3) (f : unit -> unit) : Perf.Stats.t =
  Perf.Stats.measure ~warmup ~n (fun () ->
      let t0 = now () in
      f ();
      ms_of_ns (Int64.sub (now ()) t0))

(* ------------------------------------------------------------------ *)
(* Fig 2: syscall profile                                               *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Fig 2: log-normalized Linux syscall profile across benchmarks";
  let traces =
    List.map
      (fun (a : Apps.Suite.app) ->
        let trace = Wali.Strace.create () in
        let _ = Apps.Suite.run ~trace a in
        (a.Apps.Suite.a_name, trace))
      Apps.Suite.all
  in
  let totals : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, t) ->
      List.iter
        (fun (name, n) ->
          Hashtbl.replace totals name
            (n + Option.value (Hashtbl.find_opt totals name) ~default:0))
        (Wali.Strace.profile t))
    traces;
  let order =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let level n =
    if n = 0 then '.'
    else
      Char.chr
        (Char.code '0' + min 9 (int_of_float (log10 (float_of_int n) *. 3.0)))
  in
  let top = List.filteri (fun i _ -> i < 28) order in
  Printf.printf "columns (by aggregate frequency): %s ...\n"
    (String.concat " " (List.map fst (List.filteri (fun i _ -> i < 10) top)));
  Printf.printf "%-10s " "ALL";
  List.iter (fun (_, n) -> print_char (level n)) top;
  print_newline ();
  List.iter
    (fun (app, t) ->
      Printf.printf "%-10s " app;
      let prof = Wali.Strace.profile t in
      List.iter
        (fun (name, _) ->
          print_char (level (Option.value (List.assoc_opt name prof) ~default:0)))
        top;
      Printf.printf "  (%d unique, %d calls)\n"
        (Wali.Strace.unique_syscalls t)
        (Wali.Strace.total_calls t))
    traces;
  let union : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, t) ->
      List.iter (fun (n, _) -> Hashtbl.replace union n ()) (Wali.Strace.profile t))
    traces;
  Printf.printf
    "union of suite: %d unique syscalls (paper: many apps <100; union ~140-150)\n"
    (Hashtbl.length union);
  emit "fig2"
    (("union_unique", c_int (Hashtbl.length union))
    :: List.concat_map
         (fun (app, t) ->
           [
             (app ^ ".unique", c_int (Wali.Strace.unique_syscalls t));
             (app ^ ".calls", c_int (Wali.Strace.total_calls t));
           ])
         traces)

(* ------------------------------------------------------------------ *)
(* Fig 3: ISA similarity                                                *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Fig 3: Linux syscall similarity across ISAs";
  let open Tables.Linux_tables in
  List.iter
    (fun isa ->
      Printf.printf "%-8s: %d syscalls modelled\n" (isa_name isa) (count isa))
    isas;
  Printf.printf "\n%-18s" "common syscalls";
  List.iter (fun b -> Printf.printf "%10s" (isa_name b)) isas;
  print_newline ();
  List.iter
    (fun a ->
      Printf.printf "%-18s" (isa_name a);
      List.iter (fun b -> Printf.printf "%10d" (common a b)) isas;
      print_newline ())
    isas;
  Printf.printf
    "\naarch64/riscv64 near-identical and largely a subset of x86-64 (paper §2)\n";
  Printf.printf "WALI name-bound union: %d virtual syscalls\n"
    (List.length (union_names ()));
  emit "fig3"
    (("wali_union", c_int (List.length (union_names ())))
    :: List.map (fun isa -> (isa_name isa, c_int (count isa))) isas)

(* ------------------------------------------------------------------ *)
(* Table 1: porting effort                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: porting effort of Wasm APIs";
  Printf.printf "%-12s %-12s %6s %6s %6s   %s\n" "app" "(paper)" "WALI"
    "WASIX" "WASI" "missing feature (WASI)";
  let rows = Apps.Suite.porting_table () in
  List.iter
    (fun (r : Apps.Suite.porting_row) ->
      let a = r.Apps.Suite.pr_app in
      let mark = function None -> "  ok" | Some _ -> "   x" in
      Printf.printf "%-12s %-12s %6s %6s %6s   %s\n" a.Apps.Suite.a_name
        a.Apps.Suite.a_paper_name
        (mark r.Apps.Suite.pr_wali)
        (mark r.Apps.Suite.pr_wasix)
        (mark r.Apps.Suite.pr_wasi)
        (Option.value r.Apps.Suite.pr_wasi ~default:"-"))
    rows;
  let ports f = List.length (List.filter (fun r -> f r = None) rows) in
  emit "table1"
    [
      ("apps", c_int (List.length rows));
      ("wali_ports", c_int (ports (fun r -> r.Apps.Suite.pr_wali)));
      ("wasix_ports", c_int (ports (fun r -> r.Apps.Suite.pr_wasix)));
      ("wasi_ports", c_int (ports (fun r -> r.Apps.Suite.pr_wasi)));
    ]

(* ------------------------------------------------------------------ *)
(* Table 2: intrinsic syscall overhead                                  *)
(* ------------------------------------------------------------------ *)

let probe_rounds = 15

(* Table 2 and Fig 7 read their syscall costs from perfbench's probe:
   [probe.<sys>.hook_ns], [.marshal_ns] and [.kernel_ns] per syscall it
   times, and [probe.seccomp_ns]. A probed call that returns the wrong
   result fails the run. *)
let probe () =
  let ms, ok = Perfbench.Probe.table2 ~rounds:probe_rounds in
  if not ok then fail "Table 2 probe: a probed call returned a wrong result";
  let probed =
    List.filter_map
      (fun (k, _) ->
        match String.split_on_char '.' k with
        | [ "probe"; sys; "kernel_ns" ] -> Some sys
        | _ -> None)
      ms
  in
  let ns sys field = List.assoc (Printf.sprintf "probe.%s.%s" sys field) ms in
  (probed, ns, List.assoc "probe.seccomp_ns" ms)

let table2 () =
  header "Table 2: WALI syscall overhead (Perfbench.Probe, median ns per call)";
  let probed, ns, seccomp = probe () in
  let wall v = Perf.Model.wall_v ~n:probe_rounds ~mad:0.0 v in
  Printf.printf "%-16s %8s %8s %8s %9s %6s %6s\n" "syscall" "hook" "marshal"
    "kernel" "overhead" "LOC" "state";
  let rows =
    List.concat_map
      (fun sys ->
        let h = ns sys "hook_ns" and m = ns sys "marshal_ns"
        and k = ns sys "kernel_ns" in
        let spec = Option.get (Wali.Spec.find sys) in
        Printf.printf "%-16s %8.0f %8.0f %8.0f %9.0f %6d %6s\n" sys h m k
          (h +. m +. k) spec.Wali.Spec.loc
          (if spec.Wali.Spec.stateful then "Y" else "N");
        [
          (sys ^ ".hook_ns", wall h);
          (sys ^ ".marshal_ns", wall m);
          (sys ^ ".kernel_ns", wall k);
          (sys ^ ".overhead_ns", wall (h +. m +. k));
        ])
      probed
  in
  Printf.printf "%-16s %8.0f %8s %8s %9s   (the policy lookup inside hook)\n"
    "seccomp" seccomp "" "" "";
  (* clone / thread spawn: the engine-dominated outlier (paper: ~500us
     in WAMR due to execution-environment replication), which the probe
     does not time. Measured as the host-time delta between a 200-spawn
     run and an empty run. *)
  let spawn_src n =
    Printf.sprintf
      {|
        int worker(int a) { return 0; }
        int main() {
          for (int i = 0; i < %d; i = i + 1) { thread_spawn(fnptr(worker), i); }
          for (int i = 0; i < %d; i = i + 1) { sched_yield(); }
          return 0;
        }
      |}
      n (2 * n)
  in
  let run_ns n =
    let binary = Minic.to_wasm_binary (spawn_src n) in
    Perf.Stats.measure ~n:3 (fun () ->
        let t0 = now () in
        let _ =
          Wali.Interface.run_program ~binary ~argv:[ "clone" ] ~env:[] ()
        in
        Int64.to_float (Int64.sub (now ()) t0))
  in
  let base = run_ns 0 and loaded = run_ns 200 in
  let per =
    max 0.0 ((loaded.Perf.Stats.s_min -. base.Perf.Stats.s_min) /. 200.0)
  in
  let band = (loaded.Perf.Stats.s_mad +. base.Perf.Stats.s_mad) /. 200.0 in
  Printf.printf
    "%-16s %36.0f %6s %6s   (instance replication; the paper's outlier)\n"
    "clone(thread)" per "100+" "Y";
  print_endline
    "(overhead = hook + marshal + kernel: the whole traced crossing; the \
     WALI layer's own share is hook + marshal)";
  emit "table2"
    (("seccomp_ns", wall seccomp)
    :: ("clone_thread", Perf.Model.wall_v ~n:loaded.Perf.Stats.s_n ~mad:band per)
    :: rows)

(* ------------------------------------------------------------------ *)
(* Table 3: safepoint polling schemes                                   *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: async-signal polling overhead by safepoint scheme (% slowdown)";
  let workloads =
    [
      ("bash(minish)", "minish", [ "minish"; "-c"; "loop 60000" ]);
      ( "lua(calc)", "calc",
        [ "calc"; "-e";
          "i = 0; s = 0; while i < 2000 do s = s + i*i; i = i + 1 end; print s"
        ] );
      ("sqlite(minidb)", "minidb", [ "minidb"; "bench"; "120" ]);
      ("paho(zpack)", "zpack", [ "zpack"; "12" ]);
    ]
  in
  Printf.printf "%-16s %10s %10s %10s\n" "app" "Loop" "Func" "All";
  let t3_metrics = ref [] in
  List.iter
    (fun (label, app_name, argv) ->
      match Apps.Suite.find app_name with
      | None -> ()
      | Some a ->
          (* min-of-N per scheme: polling overhead is a difference of two
             small numbers, so the noisy single-shot (or even a median)
             flips signs run to run; minima subtract stably *)
          let sample scheme =
            let run = ref (0, "") in
            let s =
              time_ms (fun () -> run := Apps.Suite.run ~argv ~poll_scheme:scheme a)
            in
            (s, !run)
          in
          let base, want = sample Wasm.Code.Poll_none in
          (* polls move no result: every scheme's exit status and output
             must be the unpolled run's *)
          let checked scheme name =
            let s, got = sample scheme in
            if got <> want then
              fail "%s: the %s run's exit status or output differs from Poll_none's"
                label name;
            s
          in
          let bmin = base.Perf.Stats.s_min in
          let pct (s : Perf.Stats.t) =
            (s.Perf.Stats.s_min -. bmin) /. bmin *. 100.0
          in
          let band (s : Perf.Stats.t) =
            (s.Perf.Stats.s_mad +. base.Perf.Stats.s_mad) /. bmin *. 100.0
          in
          let l = checked Wasm.Code.Poll_loops "Loop" in
          let fn = checked Wasm.Code.Poll_funcs "Func" in
          let al = checked Wasm.Code.Poll_every "All" in
          List.iter
            (fun (scheme, s) ->
              t3_metrics :=
                ( Printf.sprintf "%s.%s_pct" app_name scheme,
                  Perf.Model.wall_v ~unit_:"pct" ~n:s.Perf.Stats.s_n
                    ~mad:(band s) (pct s) )
                :: !t3_metrics)
            [ ("loop", l); ("func", fn); ("all", al) ];
          Printf.printf "%-16s %9.1f%% %9.1f%% %9.1f%%\n" label (pct l)
            (pct fn) (pct al))
    workloads;
  emit "table3" !t3_metrics;
  print_endline
    "(expected shape: Loop/Func low; All an order of magnitude worse — paper Table 3)"

(* ------------------------------------------------------------------ *)
(* Fig 7: runtime breakdown                                             *)
(* ------------------------------------------------------------------ *)

let fig7_iters = 9

(* Each app runs at its suite argv under perfbench's layer accountant:
   app = the interpreter's time, and the accountant's busy time at the
   WALI boundary splits into kernel = each syscall's Strace count × the
   probe's kernel_ns, summed over the syscalls the probe times, and
   wali = busy − kernel. Medians over [fig7_iters] iterations. *)
let fig7 () =
  header "Fig 7: runtime breakdown across the system stack (% of run)";
  let probed, ns, _ = probe () in
  let acc = Perfbench.Accountant.create () in
  Printf.printf "%-10s %7s %7s %8s  %s\n" "app" "app%" "wali%" "kernel%"
    "covered calls";
  let metrics =
    List.concat_map
      (fun name ->
        let a = Option.get (Apps.Suite.find name) in
        let trace = Wali.Strace.create () in
        ignore (Apps.Suite.run ~trace a);
        let covered =
          List.filter (fun (sys, _) -> List.mem sys probed) (Wali.Strace.profile trace)
        in
        let kernel =
          List.fold_left
            (fun t (sys, n) -> t +. (float_of_int n *. ns sys "kernel_ns"))
            0.0 covered
        in
        let job =
          Perfbench.Workloads.of_app a ~binary:(Apps.Suite.binary_of a)
            ~argv:a.Apps.Suite.a_argv ~expect:a.Apps.Suite.a_expect
        in
        let runs =
          List.init fig7_iters (fun _ -> Perfbench.Accountant.run_iteration acc [ job ])
        in
        if not (List.for_all snd runs) then
          fail "%s failed its output check under the accountant" name;
        let med f =
          Perfbench.Sample.median (Array.of_list (List.map (fun (it, _) -> f acc it) runs))
        in
        let app = med Perfbench.Accountant.interp_ns
        and busy = med Perfbench.Accountant.busy_ns in
        let pct t = t /. (app +. busy) *. 100.0 in
        let n_covered = List.fold_left (fun n (_, c) -> n + c) 0 covered
        and calls = Wali.Strace.total_calls trace in
        Printf.printf "%-10s %6.1f%% %6.1f%% %7.1f%%  %d/%d\n" name (pct app)
          (pct (busy -. kernel)) (pct kernel) n_covered calls;
        let share t = Perf.Model.wall_v ~unit_:"pct" ~n:fig7_iters ~mad:0.0 (pct t) in
        [
          (name ^ ".app_pct", share app);
          (name ^ ".wali_pct", share (busy -. kernel));
          (name ^ ".kernel_pct", share kernel);
          (name ^ ".calls", c_int calls);
          (name ^ ".covered_calls", c_int n_covered);
        ])
      [ "zpack"; "calc"; "minidb"; "minish"; "kvd" ]
  in
  emit "fig7" metrics;
  print_endline
    "(wali% is an upper bound: calls the probe does not time stay in it, and \
     under the accountant every call takes the boxed by-name edge, not the \
     slot path the plain engine runs)\n\
     (paper: typically <1% of execution in the WALI interface; memcached ~2.4%)"

(* ------------------------------------------------------------------ *)
(* Fig 8: virtualization comparison                                     *)
(* ------------------------------------------------------------------ *)

let fig8_workload name n : Virt.workload =
  match name with
  | "lua" ->
      {
        Virt.w_name = "lua";
        w_source = Apps.App_calc.source;
        w_argv =
          [ "calc"; "-e";
            Printf.sprintf
              "i = 0; s = 0; while i < %d do s = s + i*i; i = i + 1 end; print s"
              n ];
      }
  | "bash" ->
      {
        Virt.w_name = "bash";
        w_source = Apps.App_minish.source;
        w_argv = [ "minish"; "-c"; Printf.sprintf "loop %d" n ];
      }
  | "sqlite" ->
      {
        Virt.w_name = "sqlite";
        w_source = Apps.App_minidb.source;
        w_argv = [ "minidb"; "bench"; string_of_int n ];
      }
  | _ -> invalid_arg "fig8_workload"

let fig8a () =
  header "Fig 8a: peak memory by virtualization method (MB)";
  Printf.printf "%-8s %10s %10s %10s %10s\n" "app" "native" "docker" "qemu" "wali";
  let f8a_metrics = ref [] in
  List.iter
    (fun (name, n) ->
      let p = Virt.prepare (fig8_workload name n) in
      let mb m = float_of_int m.Virt.m_peak_mem /. 1e6 in
      let r = List.map (fun m -> Virt.run p m) Virt.all_methods in
      let native_out = (List.hd r).Virt.m_output in
      List.iter2
        (fun meth res ->
          if res.Virt.m_status <> 0 || res.Virt.m_output <> native_out then
            fail "%s: the %s run exits with status %d or its output differs from native's"
              name (Virt.method_name meth) res.Virt.m_status;
          f8a_metrics :=
            ( Printf.sprintf "%s.%s_peak_mem" name (Virt.method_name meth),
              Perf.Model.counter ~unit_:"bytes"
                (float_of_int res.Virt.m_peak_mem) )
            :: !f8a_metrics)
        Virt.all_methods r;
      match r with
      | [ nat; doc; qemu; wali ] ->
          Printf.printf "%-8s %9.1fM %9.1fM %9.1fM %9.1fM\n" name (mb nat)
            (mb doc) (mb qemu) (mb wali)
      | _ -> ())
    [ ("lua", 2000); ("bash", 20000); ("sqlite", 150) ];
  emit "fig8a" !f8a_metrics;
  print_endline "(expected shape: docker pays a large base; wali stays lean)"

let fig8bcd () =
  header "Fig 8b-d: execution time incl. startup (ms) over workload sizes";
  let f8_metrics = ref [] in
  List.iter
    (fun (name, sizes) ->
      Printf.printf "\n[%s]\n%-10s %12s %12s %12s %12s\n" name "size" "native"
        "docker" "qemu" "wali";
      let crossed = ref false in
      List.iter
        (fun n ->
          let p = Virt.prepare (fig8_workload name n) in
          (* min-of-2 per cell: the sweep is long, so keep the sample
             count low, but a single shot still flips the crossover *)
          let t m =
            let s =
              Perf.Stats.measure ~warmup:0 ~n:2 (fun () ->
                  ms_of_ns (Virt.run p m).Virt.m_total_ns)
            in
            f8_metrics :=
              ( Printf.sprintf "%s.%d.%s_ms" name n (Virt.method_name m),
                Perf.Model.wall ~unit_:"ms" s )
              :: !f8_metrics;
            s.Perf.Stats.s_min
          in
          let nat = t Virt.M_native and doc = t Virt.M_docker in
          let qemu = t Virt.M_qemu and wali = t Virt.M_wali in
          if wali < doc then crossed := true;
          Printf.printf "%-10d %10.2fms %10.2fms %10.2fms %10.2fms\n" n nat doc
            qemu wali)
        sizes;
      if !crossed then
        Printf.printf
          "-> crossover observed: wali beats docker on short runs (startup dominates)\n")
    [
      ("lua", [ 200; 2000; 10000; 40000 ]);
      ("bash", [ 2000; 20000; 100000; 400000 ]);
      ("sqlite", [ 20; 80; 200; 400 ]);
    ];
  emit "fig8" !f8_metrics;
  print_endline
    "\n(expected shape: docker = native slope + large startup intercept;\n\
    \ qemu = steepest slope, tiny intercept; wali = small intercept,\n\
    \ slope between docker and qemu)"

(* ------------------------------------------------------------------ *)
(* Static analyzer throughput                                           *)
(* ------------------------------------------------------------------ *)

let analysis_bench () =
  header "Analyzer: static syscall-reachability throughput (waliscan core)";
  (* decode once: the benchmark is the analysis (compile + call graph +
     reachability + policy), not the binary parser *)
  let modules =
    List.map
      (fun (a : Apps.Suite.app) ->
        let m = Wasm.Binary.decode (Apps.Suite.binary_of a) in
        let nf =
          Wasm.Ast.num_imported_funcs m + Array.length m.Wasm.Ast.funcs
        in
        (a.Apps.Suite.a_name, m, nf))
      Apps.Suite.all
  in
  List.iter (fun (_, m, _) -> ignore (Analysis.Reach.analyze m)) modules;
  Printf.printf "%-10s %6s %8s %10s %8s\n" "app" "funcs" "allowed"
    "ms/analyze" "warnings";
  let an_metrics = ref [] in
  let total_ns = ref 0.0 and total_funcs = ref 0 in
  List.iter
    (fun (name, m, nf) ->
      let st = time_per_call ~iters:20 ~n:3 (fun () -> ignore (Analysis.Reach.analyze m)) in
      let ns = st.Perf.Stats.s_min in
      total_ns := !total_ns +. ns;
      total_funcs := !total_funcs + nf;
      let s = Analysis.Reach.analyze m in
      an_metrics :=
        (name ^ ".funcs", c_int nf)
        :: (name ^ ".allowed", c_int (List.length (Analysis.Reach.allowlist s)))
        :: (name ^ ".analyze_ns", Perf.Model.wall st)
        :: !an_metrics;
      Printf.printf "%-10s %6d %8d %9.3fms %8d\n" name nf
        (List.length (Analysis.Reach.allowlist s))
        (ns /. 1e6)
        (List.length (Analysis.Lint.lint s)))
    modules;
  emit "analysis" !an_metrics;
  let secs = !total_ns /. 1e9 in
  Printf.printf
    "suite: %d modules, %d functions in %.1fms -> %.0f modules/sec, %.0f functions/sec\n"
    (List.length modules) !total_funcs (!total_ns /. 1e6)
    (float_of_int (List.length modules) /. secs)
    (float_of_int !total_funcs /. secs)

(* ------------------------------------------------------------------ *)
(* Record/replay: recording overhead and replay speedup                  *)
(* ------------------------------------------------------------------ *)

let replay_bench () =
  header "Replay: recording overhead vs live, replay speedup (lib/replay)";
  let boot_for (a : Apps.Suite.app) =
    Apps.Suite.boot ~setup:a.Apps.Suite.a_setup ~stdin:a.Apps.Suite.a_stdin ()
  in
  Printf.printf "%-10s %8s %9s %9s %9s %8s %9s %9s\n" "app" "calls" "live"
    "record" "replay" "overhead" "speedup" "bytes";
  let rp_metrics = ref [] in
  let tl = ref 0.0 and tc = ref 0.0 and tp = ref 0.0 in
  List.iter
    (fun (a : Apps.Suite.app) ->
      let binary = Apps.Suite.binary_of a in
      let live =
        time_ms (fun () ->
            let kernel = boot_for a in
            ignore
              (Wali.Interface.run_program ~kernel ~binary
                 ~argv:a.Apps.Suite.a_argv ~env:[] ()))
      in
      (* one recording pins the trace (deterministic); the timing samples
         then record afresh each pass *)
      let run =
        let kernel = boot_for a in
        Replay.Recorder.record ~app:a.Apps.Suite.a_name ~kernel ~binary
          ~argv:a.Apps.Suite.a_argv ~env:[] ()
      in
      let record =
        time_ms (fun () ->
            let kernel = boot_for a in
            ignore
              (Replay.Recorder.record ~app:a.Apps.Suite.a_name ~kernel ~binary
                 ~argv:a.Apps.Suite.a_argv ~env:[] ()))
      in
      let trace =
        Replay.Trace.decode
          (Replay.Trace.encode (Replay.Reduce.reduce run.Replay.Recorder.r_trace))
      in
      let replay =
        time_ms (fun () ->
            let o =
              Replay.Replayer.replay ~setup:a.Apps.Suite.a_setup ~trace ~binary
                ()
            in
            if not (Replay.Replayer.converged o) then
              fail "%s diverged on replay" a.Apps.Suite.a_name)
      in
      let calls =
        Array.fold_left
          (fun n ev ->
            match ev with Replay.Trace.E_syscall _ -> n + 1 | _ -> n)
          0 trace.Replay.Trace.tr_events
      in
      let live_ms = live.Perf.Stats.s_min
      and record_ms = record.Perf.Stats.s_min
      and replay_ms = replay.Perf.Stats.s_min in
      tl := !tl +. live_ms;
      tc := !tc +. record_ms;
      tp := !tp +. replay_ms;
      let n = a.Apps.Suite.a_name in
      rp_metrics :=
        (n ^ ".calls", c_int calls)
        :: (n ^ ".bytes", c_int (Replay.Reduce.byte_size trace))
        :: (n ^ ".live_ms", Perf.Model.wall ~unit_:"ms" live)
        :: (n ^ ".record_ms", Perf.Model.wall ~unit_:"ms" record)
        :: (n ^ ".replay_ms", Perf.Model.wall ~unit_:"ms" replay)
        :: !rp_metrics;
      Printf.printf "%-10s %8d %8.2fm %8.2fm %8.2fm %+7.1f%% %8.2fx %9d\n"
        a.Apps.Suite.a_name calls live_ms record_ms replay_ms
        ((record_ms -. live_ms) /. live_ms *. 100.0)
        (live_ms /. replay_ms)
        (Replay.Reduce.byte_size trace))
    Apps.Suite.all;
  emit "replay" !rp_metrics;
  Printf.printf
    "suite: live %.1fms, record %.1fms (%+.1f%% overhead), replay %.1fms \
     (%.2fx vs live)\n"
    !tl !tc
    ((!tc -. !tl) /. !tl *. 100.0)
    !tp (!tl /. !tp);
  print_endline
    "(record pays the write-set capture; replay skips the kernel for \
     data-class calls)"

(* ------------------------------------------------------------------ *)
(* Observability: metrics-on overhead vs plain runs                      *)
(* ------------------------------------------------------------------ *)

(** Host-time cost of running the suite with the metrics pillar on
    (per-syscall histograms + kernel counters + run counters) and with
    all three pillars on, versus plain runs, min of 3 each. A table to
    read, not a gate: perfbench's [hooks.observe_pct] is the figure the
    overhead is judged on, and test_wali_basic pins a sink's words per
    getpid trip. *)
let observe_bench () =
  header "Observe: metrics-on overhead vs plain runs (lib/observe)";
  let sample f = time_ms ~n:3 f in
  Printf.printf "%-10s %9s %9s %9s  %8s\n" "app" "plain" "metrics" "all-on"
    "overhead";
  let ob_metrics = ref [] in
  let tp = ref 0.0 and tm = ref 0.0 in
  List.iter
    (fun (a : Apps.Suite.app) ->
      let plain = sample (fun () -> ignore (Apps.Suite.run a)) in
      let metrics =
        sample (fun () ->
            ignore
              (Apps.Suite.run
                 ~observe:(Observe.Sink.create Observe.Sink.metrics_only)
                 a))
      in
      let all_on =
        sample (fun () ->
            ignore
              (Apps.Suite.run
                 ~observe:(Observe.Sink.create Observe.Sink.all_on)
                 a))
      in
      let plain_ms = plain.Perf.Stats.s_min
      and metrics_ms = metrics.Perf.Stats.s_min in
      tp := !tp +. plain_ms;
      tm := !tm +. metrics_ms;
      let n = a.Apps.Suite.a_name in
      ob_metrics :=
        (n ^ ".plain_ms", Perf.Model.wall ~unit_:"ms" plain)
        :: (n ^ ".metrics_ms", Perf.Model.wall ~unit_:"ms" metrics)
        :: (n ^ ".all_on_ms", Perf.Model.wall ~unit_:"ms" all_on)
        :: !ob_metrics;
      Printf.printf "%-10s %8.2fm %8.2fm %8.2fm  %+7.1f%%\n"
        a.Apps.Suite.a_name plain_ms metrics_ms all_on.Perf.Stats.s_min
        ((metrics_ms -. plain_ms) /. plain_ms *. 100.0))
    Apps.Suite.all;
  emit "observe" !ob_metrics;
  let pct = (!tm -. !tp) /. !tp *. 100.0 in
  Printf.printf "suite: plain %.1fms, metrics %.1fms (%+.1f%% overhead)\n"
    !tp !tm pct

(* ------------------------------------------------------------------ *)

(* The module load fuzzer of lib/apps/loadfuzz.ml at a large count. A
   finding prints its seed and mutant index, which reproduce it through
   [Loadfuzz.mutant], and makes the run exit 1. *)
let fuzz_bench () =
  let count = 200_000 and seed = 1 in
  header
    (Printf.sprintf "Module load fuzzer: %d mutants of the suite's binaries, seed %d"
       count seed);
  let t0 = now () in
  let s = Apps.Loadfuzz.run ~seed ~count in
  List.iter (fun f -> fail "%s" (Apps.Loadfuzz.pp_finding f)) s.Apps.Loadfuzz.s_findings;
  Printf.printf "%s in %.1f s\n" (Apps.Loadfuzz.pp_summary s)
    (ms_of_ns (Int64.sub (now ()) t0) /. 1000.)

(* ------------------------------------------------------------------ *)

(* A section name the harness does not know exits 2, so a mistyped step
   fails instead of passing with nothing run. *)
let usage () =
  prerr_endline
    "usage: bench/main.exe [--json=FILE] \
     [all|fig2|fig3|table1|table2|table3|fig7|fig8|fig8a|analysis|replay|observe|fuzz]";
  exit 2

let () =
  let json_out = ref None in
  let args =
    List.filter
      (fun a ->
        if String.length a > 7 && String.sub a 0 7 = "--json=" then begin
          json_out := Some (String.sub a 7 (String.length a - 7));
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let which = match args with w :: _ -> w | [] -> "all" in
  (match which with
  | "fig2" -> fig2 ()
  | "fig3" -> fig3 ()
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "fig7" -> fig7 ()
  | "fig8a" -> fig8a ()
  | "fig8" ->
      fig8a ();
      fig8bcd ()
  | "analysis" -> analysis_bench ()
  | "replay" -> replay_bench ()
  | "observe" -> observe_bench ()
  | "fuzz" -> fuzz_bench ()
  | "all" ->
      fig2 ();
      fig3 ();
      table1 ();
      table2 ();
      table3 ();
      fig7 ();
      fig8a ();
      fig8bcd ();
      analysis_bench ();
      replay_bench ();
      observe_bench ()
  | _ -> usage ());
  Option.iter write_json !json_out;
  if !failed then exit 1
