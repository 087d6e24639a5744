(** The observability sink: one object threaded through engine, WALI
    interface and kernel that fans events out to the three pillars —
    the metrics registry ({!Metrics}), the Chrome trace buffer
    ({!Tracebuf}) and the folded-stack profiler ({!Profile}).

    Pillars are enabled independently via {!config}; disabled pillars
    cost one branch per event. Run-level counters (virtual wall time,
    instructions retired, safepoint polls, traps, context switches) are
    always accumulated — they are a handful of adds per quantum.

    Time base: the deterministic virtual clock. One Wasm step counts as
    1 ns of CPU; time a fiber spends below the WALI boundary is the
    virtual-clock delta across the syscall. The folded profile's total
    weight therefore equals the [profile_ns] field of the metrics dump
    exactly, and two identical runs produce identical dumps. *)

type config = {
  c_metrics : bool; (* per-syscall histograms + kernel counters dump *)
  c_trace : bool; (* Chrome trace-event spans *)
  c_profile : bool; (* folded-stack profiler (call/return driven) *)
}

let all_on = { c_metrics = true; c_trace = true; c_profile = true }
let metrics_only = { c_metrics = true; c_trace = false; c_profile = false }

(** Synthetic pid lane carrying scheduler quanta (one tid per fiber), so
    scheduling never cross-nests with the per-process syscall lanes. *)
let sched_pid = 999_999

type prof_state = { mutable ps_last_steps : int64 }

type t = {
  cfg : config;
  reg : Metrics.t; (* the engine's one registry; Strace is a view over it *)
  mutable ks : Metrics.kstats option; (* kernel counter block, set at attach *)
  tb : Tracebuf.t;
  pf : Profile.t;
  prof : (int, prof_state) Hashtbl.t; (* pid -> step counter at last sample *)
  instr_base : (int, int64 * int64) Hashtbl.t;
      (* pid -> (steps, fused dispatches) at machine birth *)
  mutable instructions : int64; (* retired across all exited machines *)
  mutable fused : int64; (* superinstruction dispatches, same lifecycle *)
  mutable fuse_before : int; (* flat ops of all built images, pre-fusion *)
  mutable fuse_after : int;
  mutable fuse_sites : int; (* static superinstruction sites *)
  mutable polls : int64;
  mutable traps : int;
  mutable ctx_switches : int;
  mutable procs : int;
  mutable wall_ns : int64;
  mutable idle_ns : int64;
  (* scheduler-lane span coalescing *)
  mutable last_fid : int;
  mutable sched_open : bool;
  mutable sched_fid : int;
  mutable sched_name : string;
  mutable last_q_end : int64;
}

let create ?metrics cfg =
  {
    cfg;
    reg = (match metrics with Some m -> m | None -> Metrics.create ());
    ks = None;
    tb = Tracebuf.create ();
    pf = Profile.create ();
    prof = Hashtbl.create 8;
    instr_base = Hashtbl.create 8;
    instructions = 0L;
    fused = 0L;
    fuse_before = 0;
    fuse_after = 0;
    fuse_sites = 0;
    polls = 0L;
    traps = 0;
    ctx_switches = 0;
    procs = 0;
    wall_ns = 0L;
    idle_ns = 0L;
    last_fid = -1;
    sched_open = false;
    sched_fid = -1;
    sched_name = "";
    last_q_end = 0L;
  }

let metrics o = o.reg
let set_kstats o ks = o.ks <- Some ks
let profiling o = o.cfg.c_profile

(* ---- syscalls ---- *)

let syscall_begin o ~pid ~tid ~name ~ts =
  if o.cfg.c_trace then Tracebuf.span_begin o.tb ~name ~cat:"syscall" ~pid ~tid ~ts

let syscall_end o ~pid ~tid ~name ~ts ~ns ~result ~(stack : unit -> string list)
    =
  if o.cfg.c_trace then
    Tracebuf.span_end o.tb ~name ~cat:"syscall" ~pid ~tid ~ts
      ~args:[ ("result", Int64.to_string result) ]
      ();
  (* Attribute time below the boundary to the calling Wasm stack, with
     the syscall name as leaf frame. *)
  if o.cfg.c_profile && Int64.compare ns 0L > 0 then
    Profile.add o.pf (stack () @ [ name ]) ns

(* ---- profiler (call/return driven) ---- *)

(** Charge the steps executed since the previous sample to the machine's
    current frame stack. Called from the interpreter's push/pop hooks
    before the stack mutates, so the charged stack is the one that ran.
    The first sample for a pid only establishes the baseline (handles
    fork, whose child clones the parent's step counter). *)
let prof_sample o ~pid ~(steps : int64) ~(stack : unit -> string list) =
  match Hashtbl.find_opt o.prof pid with
  | None -> Hashtbl.replace o.prof pid { ps_last_steps = steps }
  | Some ps ->
      let delta = Int64.sub steps ps.ps_last_steps in
      ps.ps_last_steps <- steps;
      if Int64.compare delta 0L > 0 then Profile.add o.pf (stack ()) delta

(** Forget a pid's sample baseline (exec replaces the machine; its step
    counter restarts). *)
let prof_reset o ~pid = Hashtbl.remove o.prof pid

(* ---- instructions retired ---- *)

let instr_baseline o ~pid ~steps ~fused =
  Hashtbl.replace o.instr_base pid (steps, fused)

let instr_retire o ~pid ~steps ~fused =
  let sb, fb =
    match Hashtbl.find_opt o.instr_base pid with
    | Some b -> b
    | None -> (0L, 0L)
  in
  let d = Int64.sub steps sb in
  if Int64.compare d 0L > 0 then o.instructions <- Int64.add o.instructions d;
  let df = Int64.sub fused fb in
  if Int64.compare df 0L > 0 then o.fused <- Int64.add o.fused df;
  Hashtbl.remove o.instr_base pid

(* ---- macro-op fusion coverage ---- *)

(** Record the static fusion stats of a freshly built process image
    (initial load and each execve); images accumulate over the run. *)
let note_fusion o ~ops_before ~ops_after ~sites =
  o.fuse_before <- o.fuse_before + ops_before;
  o.fuse_after <- o.fuse_after + ops_after;
  o.fuse_sites <- o.fuse_sites + sites

(* ---- processes ---- *)

let proc_start o ~pid ~tid ~comm ~ts =
  o.procs <- o.procs + 1;
  if o.cfg.c_trace then begin
    Tracebuf.name_process o.tb ~pid ~name:(Printf.sprintf "%s (pid %d)" comm pid);
    Tracebuf.name_thread o.tb ~pid ~tid ~name:(Printf.sprintf "tid %d" tid);
    Tracebuf.instant o.tb ~name:"proc_start" ~cat:"proc" ~pid ~tid ~ts ()
  end

let proc_exit o ~pid ~tid ~status ~ts =
  if o.cfg.c_trace then
    Tracebuf.instant o.tb ~name:"proc_exit" ~cat:"proc" ~pid ~tid ~ts
      ~args:[ ("status", string_of_int status) ]
      ()

(* ---- signals ---- *)

let signal_begin o ~pid ~tid ~signo ~ts =
  if o.cfg.c_trace then
    Tracebuf.span_begin o.tb
      ~name:(Printf.sprintf "sig%d" signo)
      ~cat:"signal" ~pid ~tid ~ts

let signal_end o ~pid ~tid ~signo ~ts =
  if o.cfg.c_trace then
    Tracebuf.span_end o.tb
      ~name:(Printf.sprintf "sig%d" signo)
      ~cat:"signal" ~pid ~tid ~ts ()

let signal_fatal o ~pid ~tid ~signo ~ts =
  if o.cfg.c_trace then
    Tracebuf.instant o.tb
      ~name:(Printf.sprintf "fatal sig%d" signo)
      ~cat:"signal" ~pid ~tid ~ts ()

(* ---- engine counters ---- *)

let safepoint_poll o = o.polls <- Int64.add o.polls 1L
let trap o = o.traps <- o.traps + 1

(* ---- scheduler observation ---- *)

let close_sched o =
  if o.sched_open then begin
    Tracebuf.span_end o.tb ~name:o.sched_name ~cat:"sched" ~pid:sched_pid
      ~tid:o.sched_fid ~ts:o.last_q_end ();
    o.sched_open <- false
  end

(* One scheduling quantum finished at [ts] (it covered
   [ts - tick_ns, ts]). Contiguous quanta of the same fiber coalesce
   into a single span on the scheduler lane. *)
let on_quantum o f (ts : int64) =
  o.wall_ns <- Int64.add o.wall_ns Fiber.tick_ns;
  let fid = Fiber.id f in
  if o.last_fid >= 0 && o.last_fid <> fid then
    o.ctx_switches <- o.ctx_switches + 1;
  o.last_fid <- fid;
  if o.cfg.c_trace then begin
    let start = Int64.sub ts Fiber.tick_ns in
    if o.sched_open && o.sched_fid = fid && Int64.equal o.last_q_end start then
      o.last_q_end <- ts
    else begin
      close_sched o;
      Tracebuf.name_process o.tb ~pid:sched_pid ~name:"scheduler";
      Tracebuf.name_thread o.tb ~pid:sched_pid ~tid:fid ~name:(Fiber.name f);
      Tracebuf.span_begin o.tb ~name:(Fiber.name f) ~cat:"sched" ~pid:sched_pid
        ~tid:fid ~ts:start;
      o.sched_open <- true;
      o.sched_fid <- fid;
      o.sched_name <- Fiber.name f;
      o.last_q_end <- ts
    end
  end

let on_idle o (delta : int64) =
  o.wall_ns <- Int64.add o.wall_ns delta;
  o.idle_ns <- Int64.add o.idle_ns delta

let attach o =
  Fiber.set_observer
    (Some
       {
         Fiber.ob_quantum = (fun f ts -> on_quantum o f ts);
         ob_idle = (fun d -> on_idle o d);
       })

let detach o =
  close_sched o;
  Fiber.set_observer None

(* ---- dumps ---- *)

let trace_json o = Tracebuf.dump o.tb
let profile_folded o = Profile.dump o.pf
let profile_total o = Profile.total o.pf
let wall_ns o = o.wall_ns

(** The always-on run counters as a plain record, so consumers (waliperf)
    read them without going through the JSON dump. Every field is
    deterministic — virtual clock, instruction counts, scheduler and
    engine event counts — never the host wall clock. *)
type run_counters = {
  rc_wall_ns : int64;
  rc_idle_ns : int64;
  rc_instructions : int64;
  rc_fused : int64; (* superinstruction dispatches retired *)
  rc_fusion_sites : int; (* static superinstruction sites in built images *)
  rc_fusion_ops_before : int;
  rc_fusion_ops_after : int;
  rc_safepoint_polls : int64;
  rc_traps : int;
  rc_ctx_switches : int;
  rc_processes : int;
  rc_profile_ns : int64;
}

let run_counters o =
  {
    rc_wall_ns = o.wall_ns;
    rc_idle_ns = o.idle_ns;
    rc_instructions = o.instructions;
    rc_fused = o.fused;
    rc_fusion_sites = o.fuse_sites;
    rc_fusion_ops_before = o.fuse_before;
    rc_fusion_ops_after = o.fuse_after;
    rc_safepoint_polls = o.polls;
    rc_traps = o.traps;
    rc_ctx_switches = o.ctx_switches;
    rc_processes = o.procs;
    rc_profile_ns = Profile.total o.pf;
  }

let schema_version = 1

let kstats_or_zero o =
  match o.ks with Some ks -> ks | None -> Metrics.kstats_create ()

let metrics_json o : string =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"schema\":\"wali-metrics\",\"version\":%d," schema_version;
  Printf.bprintf b
    "\"run\":{\"wall_ns\":%Ld,\"idle_ns\":%Ld,\"instructions\":%Ld,\"fused_dispatches\":%Ld,\"fusion_sites\":%d,\"fusion_ops_before\":%d,\"fusion_ops_after\":%d,\"safepoint_polls\":%Ld,\"traps\":%d,\"processes\":%d,\"profile_ns\":%Ld},"
    o.wall_ns o.idle_ns o.instructions o.fused o.fuse_sites o.fuse_before
    o.fuse_after o.polls o.traps o.procs
    (Profile.total o.pf);
  Buffer.add_string b "\"syscalls\":{";
  List.iteri
    (fun i (name, (s : Metrics.syscall_stats)) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "%s:{\"calls\":%d,\"errors\":%d,\"total_ns\":%Ld,\"p50_ns\":%Ld,\"p90_ns\":%Ld,\"p99_ns\":%Ld,\"max_ns\":%Ld,\"buckets\":["
        (Json.quote name) s.calls s.errors s.ns
        (Hist.percentile s.hist 0.50)
        (Hist.percentile s.hist 0.90)
        (Hist.percentile s.hist 0.99)
        (Hist.max_value s.hist);
      List.iteri
        (fun j (bi, c) ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "[%d,%d]" bi c)
        (Hist.nonzero s.hist);
      Buffer.add_string b "]}")
    (Metrics.by_name o.reg);
  Buffer.add_string b "},";
  let ks = kstats_or_zero o in
  Buffer.add_string b "\"kernel\":{\"vfs\":{";
  List.iteri
    (fun i (op, n) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%s:%d" (Json.quote op) n)
    (Metrics.vfs_by_name ks);
  Printf.bprintf b
    "},\"fd_high_water\":%d,\"futex_waits\":%d,\"futex_wakes\":%d,\"signals_queued\":%d,\"signals_delivered\":%d,\"pipe_bytes\":%Ld,\"socket_bytes\":%Ld,\"dcache_hits\":%Ld,\"dcache_misses\":%Ld,\"context_switches\":%d}}"
    ks.Metrics.fd_high_water ks.Metrics.futex_waits ks.Metrics.futex_wakes
    ks.Metrics.sig_queued ks.Metrics.sig_delivered ks.Metrics.pipe_bytes
    ks.Metrics.sock_bytes ks.Metrics.dcache_hits ks.Metrics.dcache_misses
    o.ctx_switches;
  Buffer.add_string b "\n";
  Buffer.contents b

(* walitop-style human summary *)
let report o : string =
  let b = Buffer.create 2048 in
  let ks = kstats_or_zero o in
  let pct_idle =
    if Int64.compare o.wall_ns 0L > 0 then
      100.0 *. Int64.to_float o.idle_ns /. Int64.to_float o.wall_ns
    else 0.0
  in
  Printf.bprintf b "== run ==\n";
  Printf.bprintf b "  wall            %Ld ns  (idle %.1f%%)\n" o.wall_ns pct_idle;
  Printf.bprintf b "  processes       %d\n" o.procs;
  Printf.bprintf b "  ctx switches    %d\n" o.ctx_switches;
  Printf.bprintf b "  instructions    %Ld\n" o.instructions;
  (if o.fuse_sites > 0 || Int64.compare o.fused 0L > 0 then
     let saved =
       if Int64.compare o.instructions 0L > 0 then
         100.0 *. Int64.to_float o.fused /. Int64.to_float o.instructions
       else 0.0
     in
     Printf.bprintf b
       "  fusion          %Ld dispatches (%.1f%% of instrs), %d sites, ops %d -> %d\n"
       o.fused saved o.fuse_sites o.fuse_before o.fuse_after);
  Printf.bprintf b "  safepoint polls %Ld\n" o.polls;
  Printf.bprintf b "  traps           %d\n" o.traps;
  if o.cfg.c_profile then
    Printf.bprintf b "  profiled        %Ld ns over %d stacks\n"
      (Profile.total o.pf) (Profile.stacks o.pf);
  Printf.bprintf b "== syscalls ==\n";
  Printf.bprintf b "  %-18s %7s %6s %12s %9s %9s %9s\n" "name" "calls" "errs"
    "total_ns" "p50_ns" "p90_ns" "p99_ns";
  let by_time = Metrics.by_time o.reg in
  List.iter
    (fun (name, (s : Metrics.syscall_stats)) ->
      Printf.bprintf b "  %-18s %7d %6d %12Ld %9Ld %9Ld %9Ld\n" name s.calls
        s.errors s.ns
        (Hist.percentile s.hist 0.50)
        (Hist.percentile s.hist 0.90)
        (Hist.percentile s.hist 0.99))
    by_time;
  Printf.bprintf b "== kernel ==\n";
  (match Metrics.vfs_by_name ks with
  | [] -> ()
  | ops ->
      Printf.bprintf b "  vfs            ";
      List.iteri
        (fun i (op, n) ->
          if i > 0 then Buffer.add_char b ' ';
          Printf.bprintf b "%s=%d" op n)
        ops;
      Buffer.add_char b '\n');
  Printf.bprintf b "  fd high water   %d\n" ks.Metrics.fd_high_water;
  Printf.bprintf b "  futex wait/wake %d/%d\n" ks.Metrics.futex_waits
    ks.Metrics.futex_wakes;
  Printf.bprintf b "  sig queue/deliv %d/%d\n" ks.Metrics.sig_queued
    ks.Metrics.sig_delivered;
  Printf.bprintf b "  pipe bytes      %Ld\n" ks.Metrics.pipe_bytes;
  Printf.bprintf b "  socket bytes    %Ld\n" ks.Metrics.sock_bytes;
  Printf.bprintf b "  dcache hit/miss %Ld/%Ld\n" ks.Metrics.dcache_hits
    ks.Metrics.dcache_misses;
  Buffer.contents b
