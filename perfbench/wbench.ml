(** The WALI benchmark driver.

    [wbench --workload W --seed N --seconds S --trace 0|1]

    With [--trace 0] it sets the workload up several times, then runs
    plain iterations (every hook off) for [S] seconds and reports the
    end-to-end metrics. With [--trace 1] it interleaves plain, traced,
    observed and recorded iterations for most of [S], runs the cold-load
    and Table 2 probes, writes the traced spans as a Chrome trace under
    [.bench_out/], and reports the per-layer metrics. The last line of
    standard output is one JSON object: correct, attempted, failed,
    metrics. *)

open Perfbench

let now = Accountant.now
let ms_of_ns ns = float_of_int ns /. 1e6
let setup_rounds = 9

(* Share of [--seconds] spent on iterations in a traced run; the probes
   take the rest. *)
let traced_iter_share = 0.85

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable metrics : (string * float * string) list; (* name, value, unit *)
}

let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics

let samples () : float list ref = ref []
let push s x = s := x :: !s
let values s = Array.of_list !s

(** One iteration through [run]: every job of the set, then its checks.
    The program set is built before the clock starts. Returns host ms,
    minor words allocated, and correctness. *)
let iteration run (jobs : Workloads.job list) : float * float * bool =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let ok = List.fold_left (fun ok j -> run j && ok) true jobs in
  let t1 = now () in
  (ms_of_ns (t1 - t0), Gc.minor_words () -. w0, ok)

let count r ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    r.correct <- false
  end

(** Set the workload up [setup_rounds] times: compile its MiniC sources,
    generate its seeded inputs and run its warm-up iterations. Returns the
    workload and the median set-up seconds. *)
let setup r speed name ~seed : Workloads.t * float =
  let times = samples () in
  let wl = ref None in
  for round = 1 to setup_rounds do
    Speed.sample speed;
    let t0 = now () in
    let w = Workloads.make name ~seed in
    for i = 1 to w.Workloads.w_warmup do
      let _, _, ok = iteration Workloads.run_plain (w.Workloads.w_jobs ~iter:(-((round * 100) + i))) in
      if not ok then r.correct <- false
    done;
    push times (float_of_int (now () - t0) /. 1e9 *. Speed.factor speed);
    wl := Some w
  done;
  (Option.get !wl, Sample.median (values times))

let vm_hwm_mb () : float =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let end_to_end r speed (w : Workloads.t) ~seconds ~setup_s =
  let deadline = now () + (seconds * 1_000_000_000) in
  let ms = samples () and raw = samples () in
  let iter = ref 0 in
  while !iter = 0 || now () < deadline do
    let jobs = w.Workloads.w_jobs ~iter:!iter in
    Speed.sample speed;
    let t, _, ok = iteration Workloads.run_plain jobs in
    count r ok;
    push raw t;
    push ms (t *. Speed.factor speed);
    incr iter
  done;
  let ms = values ms and raw = values raw in
  Printf.printf "raw host ms: p50 %.3f p90 %.3f; reference kernel median %.3f ms (nominal %.1f)\n"
    (Sample.percentile raw 50.0) (Sample.percentile raw 90.0) (Speed.median_ms speed)
    Speed.nominal_ms;
  metric r "setup_s" "s" setup_s;
  metric r "run_ms_p50" "ms" (Sample.percentile ms 50.0);
  metric r "run_ms_p90" "ms" (Sample.percentile ms 90.0);
  metric r "mem_peak_mb" "MB" (vm_hwm_mb ())

let write_trace (a : Accountant.t) ~workload ~seed =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let oc = open_out path in
  output_string oc (Accountant.chrome_trace a);
  close_out oc;
  Printf.printf "trace: %s (%d spans)\n" path (Accountant.spans_recorded a)

let per_layer r speed (w : Workloads.t) ~seconds ~seed =
  let acct = Accountant.create () in
  let traced = ref [] in
  let plain = samples () and plain_words = samples () and traced_ms = samples ()
  and observed = samples () and recorded = samples () in
  let variants =
    [|
      (fun jobs ->
        let t, words, ok = iteration Workloads.run_plain jobs in
        push plain t;
        push plain_words words;
        ok);
      (fun jobs ->
        let t0 = now () in
        let it, ok = Accountant.run_iteration acct jobs in
        push traced_ms (ms_of_ns (now () - t0));
        traced := it :: !traced;
        ok);
      (fun jobs ->
        let t, _, ok = iteration Workloads.run_observed jobs in
        push observed t;
        ok);
      (fun jobs ->
        let t, _, ok = iteration Workloads.run_recorded jobs in
        push recorded t;
        ok);
    |]
  in
  let nv = Array.length variants in
  let deadline =
    now () + int_of_float (traced_iter_share *. float_of_int seconds *. 1e9)
  in
  let iter = ref 0 and round = ref 0 in
  (* each round runs every variant once, rotating which goes first *)
  while !round = 0 || now () < deadline do
    Speed.sample speed;
    for k = 0 to nv - 1 do
      (* every variant starts from a collected heap, so none pays for the
         garbage of the one before *)
      Gc.full_major ();
      count r (variants.((!round + k) mod nv) (w.Workloads.w_jobs ~iter:!iter));
      incr iter
    done;
    incr round
  done;
  let its = Array.of_list (List.rev !traced) in
  (* the same program set must retire the same instructions and make the
     same syscalls every time, and the engine's own counters must agree *)
  let jobs0 = w.Workloads.w_jobs ~iter:!iter in
  let instr0, calls0 =
    List.fold_left
      (fun (i, c) j ->
        let i', c' = Workloads.counts j in
        (i + i', c + c'))
      (0, 0) jobs0
  in
  let it0, ok0 = Accountant.run_iteration acct jobs0 in
  count r ok0;
  Array.iter
    (fun (it : Accountant.iter) ->
      if it.Accountant.steps <> it0.Accountant.steps || it.Accountant.calls <> it0.Accountant.calls
      then begin
        Printf.printf "counts differ between traced iterations\n";
        r.correct <- false
      end)
    its;
  if it0.Accountant.steps <> instr0 || it0.Accountant.calls <> calls0 then begin
    Printf.printf "count mismatch: traced %d instr / %d calls, engine %d / %d\n"
      it0.Accountant.steps it0.Accountant.calls instr0 calls0;
    r.correct <- false
  end;
  (* then the probes *)
  let load = [| samples (); samples (); samples () |] in
  let binaries =
    List.map (fun (j : Workloads.job) -> (j.Workloads.j_app, j.Workloads.j_binary)) jobs0
  in
  for _ = 1 to 5 do
    let d, c, i = Probe.load binaries in
    push load.(0) (ms_of_ns d);
    push load.(1) (ms_of_ns c);
    push load.(2) (ms_of_ns i)
  done;
  let probes, probe_ok = Probe.table2 ~rounds:15 in
  if not probe_ok then r.correct <- false;
  let fsum f = Array.fold_left (fun acc it -> acc +. f it) 0.0 its in
  let isum f = fsum (fun it -> float_of_int (f it)) in
  let n = float_of_int (Array.length its) in
  let per_iter f = isum f /. n in
  let interp_ns = Accountant.interp_ns acct and busy_ns = Accountant.busy_ns acct in
  (* no layer's self time may come out negative *)
  Array.iter
    (fun it ->
      if interp_ns it < 0.0 || busy_ns it < 0.0 then begin
        Printf.printf "negative self time in a traced iteration\n";
        r.correct <- false
      end)
    its;
  let med s = Sample.median (values s) in
  let pct s = ((med s /. med plain) -. 1.0) *. 100.0 in
  let seccomp = List.assoc "probe.seccomp_ns" probes in
  let plumbing_ns =
    Sample.median
      (Array.of_list
         (List.filter_map
            (fun (k, v) ->
              if Filename.extension k = ".hook_ns" then Some (v -. seccomp) else None)
            probes))
  in
  let calls = per_iter (fun it -> it.Accountant.calls) in
  let steps = isum (fun it -> it.Accountant.steps) in
  let busy_ms = fsum busy_ns /. n /. 1e6 in
  let call_ns = Accountant.call_ns acct in
  let m = metric r in
  m "boot.ms" "ms" (per_iter (fun it -> it.Accountant.boot_ns) /. 1e6);
  m "load.init_ms" "ms" (per_iter (fun it -> it.Accountant.load_ns) /. 1e6);
  m "load.decode_ms" "ms" (med load.(0));
  m "load.compile_ms" "ms" (med load.(1));
  m "load.instantiate_ms" "ms" (med load.(2));
  m "interp.ms" "ms" (fsum interp_ns /. n /. 1e6);
  m "interp.instructions" "count" (steps /. n);
  m "interp.ns_per_instr" "ns" (Sample.ratio (fsum interp_ns) steps);
  m "interp.fused_frac" "ratio" (Sample.ratio (isum (fun it -> it.Accountant.fused)) steps);
  m "interp.alloc_words_per_instr" "words" (Sample.ratio (isum Accountant.interp_words) steps);
  m "wali.calls" "count" calls;
  m "wali.busy_ms" "ms" busy_ms;
  m "wali.blocked_ms" "ms" (per_iter (fun it -> it.Accountant.blocked_ns) /. 1e6);
  m "wali.boundary_ms" "ms" (busy_ms +. (calls *. plumbing_ns /. 1e6));
  m "wali.ns_per_call_p50" "ns" (Sample.percentile call_ns 50.0);
  m "wali.ns_per_call_p90" "ns" (Sample.percentile call_ns 90.0);
  m "wali.errno_frac" "ratio"
    (Sample.ratio (isum (fun it -> it.Accountant.errnos)) (isum (fun it -> it.Accountant.calls)));
  m "wali.alloc_words_per_call" "words"
    (Sample.ratio (isum (fun it -> it.Accountant.wali_words)) (isum (fun it -> it.Accountant.calls)));
  let hits = isum (fun it -> it.Accountant.dcache_hits) in
  m "kernel.dcache_hit_ratio" "ratio"
    (Sample.ratio hits (hits +. isum (fun it -> it.Accountant.dcache_misses)));
  m "kernel.futex_wakes" "count" (per_iter (fun it -> it.Accountant.futex_wakes));
  m "kernel.sock_bytes" "bytes" (per_iter (fun it -> it.Accountant.sock_bytes));
  m "kernel.pipe_bytes" "bytes" (per_iter (fun it -> it.Accountant.pipe_bytes));
  m "fiber.quanta" "count" (per_iter (fun it -> it.Accountant.quanta));
  m "fiber.switches" "count" (per_iter (fun it -> it.Accountant.switches));
  m "gc.minor_words" "words" (med plain_words);
  m "trace.overhead_pct" "%" (pct traced_ms);
  m "trace.self_ms" "ms" (fsum (Accountant.self_ns acct) /. n /. 1e6);
  m "hooks.observe_pct" "%" (pct observed);
  m "hooks.record_pct" "%" (pct recorded);
  m "ref.ms" "ms" (Speed.median_ms speed);
  m "failed_frac" "ratio" (Sample.ratio (float_of_int r.failed) (float_of_int r.attempted));
  List.iter (fun (k, v) -> m k "ns" v) probes;
  write_trace acct ~workload:w.Workloads.w_name ~seed

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result r =
  let metrics = List.rev r.metrics in
  List.iter (fun (k, v, u) -> Printf.printf "%-32s %14.4f %s\n" k v u) metrics;
  if List.exists (fun (_, v, _) -> not (Float.is_finite v)) metrics then r.correct <- false;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Observe.Json.quote k)
              (json_num v) (Observe.Json.quote u))
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " apps | syscall | coldstart");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "wbench: need --workload apps|syscall|coldstart, --seconds >= 1, --trace 0|1";
    exit 2
  end;
  let r = { attempted = 0; failed = 0; correct = true; metrics = [] } in
  let speed = Speed.create () in
  let w, setup_s = setup r speed !workload ~seed:!seed in
  Gc.full_major ();
  if !trace = 0 then end_to_end r speed w ~seconds:!seconds ~setup_s
  else per_layer r speed w ~seconds:!seconds ~seed:!seed;
  print_result r
