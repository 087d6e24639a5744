(** The layer accountant for the traced run. It times each layer from the
    outside, around calls into that layer's public entry points, with the
    host monotonic clock:

    - [boot]: [Kernel.Task.boot] plus the job's file and console staging;
    - [load]: [Wali.Interface.spawn_init] (decode, compile, instantiate);
    - [wali]: every host call, through an [Engine.interposer] wrapping the
      seccomp check and kernel dispatch;
    - [interp]: what is left of the iteration once the accountant's own
      calibrated cost is taken out.

    A crossing is charged only while its own fiber runs. The scheduler's
    quantum callback marks every switch point; time a crossing spends
    parked in the kernel (a read on an empty pipe, a futex wait) goes to
    [blocked], because other fibers run meanwhile and their time is
    charged to them. Allocation is split the same way with the GC's minor
    word counter. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let words () = int_of_float (Gc.minor_words ())

(* One open crossing per fiber at most: a fiber is inside one host call
   until it returns. Slots are reused, so accounting allocates nothing
   per call. *)
type slot = {
  mutable s_open : bool;
  mutable s_start : int;
  mutable s_words0 : int;
  mutable s_busy : int;
  mutable s_words : int;
}

(** Per-iteration layer totals. *)
type iter = {
  mutable i_ns : int;
  mutable i_words : int;
  mutable boot_ns : int;
  mutable boot_words : int;
  mutable load_ns : int;
  mutable load_words : int;
  mutable crossings : int; (* host calls, thread_spawn included *)
  mutable busy_ns : int;
  mutable blocked_ns : int;
  mutable wali_words : int;
  mutable calls : int;
  mutable errnos : int;
  mutable steps : int;
  mutable fused : int;
  mutable quanta : int;
  mutable switches : int;
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable futex_wakes : int;
  mutable sock_bytes : int;
  mutable pipe_bytes : int;
}

let iter_zero () =
  {
    i_ns = 0; i_words = 0; boot_ns = 0; boot_words = 0; load_ns = 0;
    load_words = 0; crossings = 0; busy_ns = 0; blocked_ns = 0; wali_words = 0; calls = 0;
    errnos = 0; steps = 0; fused = 0; quanta = 0; switches = 0;
    dcache_hits = 0; dcache_misses = 0; futex_wakes = 0; sock_bytes = 0;
    pipe_bytes = 0;
  }

(* Spans kept in memory as plain arrays and written out at exit. *)
let span_cap = 50_000

type spans = {
  mutable sp_n : int;
  sp_cap : int;
  sp_name : string array;
  sp_pid : int array;
  sp_tid : int array;
  sp_t0 : int array;
  sp_t1 : int array;
}

(* The accountant's own host ns per crossing (see [calibrate]). *)
type calib = { c_inside : float; c_total : float }

type t = {
  mutable slots : slot array; (* by fiber id *)
  mutable last_switch : int; (* host ns when the last quantum ended *)
  mutable last_switch_words : int;
  mutable last_fid : int;
  mutable cur : iter;
  sp : spans;
  epoch : int;
  call_ns : float array; (* busy ns of each call, for percentiles *)
  mutable n_call_ns : int;
  instr_base : (int, int * int) Hashtbl.t; (* pid -> steps, fused at birth *)
  calib : calib;
}

let make ?(span_cap = span_cap) ?(call_cap = 262_144) () =
  {
    slots = [||];
    last_switch = 0;
    last_switch_words = 0;
    last_fid = -1;
    cur = iter_zero ();
    sp =
      {
        sp_n = 0;
        sp_cap = span_cap;
        sp_name = Array.make span_cap "";
        sp_pid = Array.make span_cap 0;
        sp_tid = Array.make span_cap 0;
        sp_t0 = Array.make span_cap 0;
        sp_t1 = Array.make span_cap 0;
      };
    epoch = now ();
    call_ns = Array.make call_cap 0.0;
    n_call_ns = 0;
    instr_base = Hashtbl.create 8;
    calib = { c_inside = 0.0; c_total = 0.0 };
  }

let span a ~name ~pid ~tid t0 t1 =
  let s = a.sp in
  if s.sp_n < s.sp_cap then begin
    let i = s.sp_n in
    s.sp_name.(i) <- name;
    s.sp_pid.(i) <- pid;
    s.sp_tid.(i) <- tid;
    s.sp_t0.(i) <- t0 - a.epoch;
    s.sp_t1.(i) <- t1 - a.epoch;
    s.sp_n <- i + 1
  end

let spans_recorded a = a.sp.sp_n

let slot a fid =
  if fid >= Array.length a.slots then begin
    let grown =
      Array.init (max 8 (2 * (fid + 1))) (fun i ->
          if i < Array.length a.slots then a.slots.(i)
          else { s_open = false; s_start = 0; s_words0 = 0; s_busy = 0; s_words = 0 })
    in
    a.slots <- grown
  end;
  a.slots.(fid)

(* Charge the on-CPU stretch of an open crossing that ends at [t]/[w]:
   it began at the crossing's start or, after a park, when the fiber's
   current quantum began. *)
let charge a (s : slot) ~t ~w =
  if s.s_start > a.last_switch then begin
    s.s_busy <- s.s_busy + (t - s.s_start);
    s.s_words <- s.s_words + (w - s.s_words0)
  end
  else begin
    s.s_busy <- s.s_busy + (t - a.last_switch);
    s.s_words <- s.s_words + (w - a.last_switch_words)
  end

let observer a : Fiber.observer =
  {
    Fiber.ob_quantum =
      (fun f _ ->
        let t = now () and w = words () in
        let fid = Fiber.id f in
        let it = a.cur in
        it.quanta <- it.quanta + 1;
        if a.last_fid >= 0 && a.last_fid <> fid then it.switches <- it.switches + 1;
        a.last_fid <- fid;
        if fid < Array.length a.slots && a.slots.(fid).s_open then
          charge a a.slots.(fid) ~t ~w;
        a.last_switch <- t;
        a.last_switch_words <- w);
    ob_idle =
      (fun _ ->
        a.last_switch <- now ();
        a.last_switch_words <- words ());
  }

let steps_of (m : Wasm.Rt.machine) =
  (Int64.to_int m.Wasm.Rt.steps, Int64.to_int m.Wasm.Rt.fused)

(* Retire a machine's instructions, net of what it inherited at fork. *)
let retire a ~pid (m : Wasm.Rt.machine) =
  let s, f = steps_of m in
  let s0, f0 = Option.value (Hashtbl.find_opt a.instr_base pid) ~default:(0, 0) in
  Hashtbl.remove a.instr_base pid;
  a.cur.steps <- a.cur.steps + (s - s0);
  a.cur.fused <- a.cur.fused + (f - f0)

(* "wali.<syscall>" span names, made once per syscall name *)
let span_names : (string, string) Hashtbl.t = Hashtbl.create 64

let span_name name =
  match Hashtbl.find span_names name with
  | n -> n
  | exception Not_found ->
      let n = "wali." ^ name in
      Hashtbl.replace span_names name n;
      n

(* Close the crossing in [s]: a top-level function, not a closure, so
   that closing allocates nothing the crossing would be charged for. *)
let finish a (s : slot) ~pid ~tid name =
  let t = now () and w = words () in
  charge a s ~t ~w;
  s.s_open <- false;
  let it = a.cur in
  it.crossings <- it.crossings + 1;
  it.busy_ns <- it.busy_ns + s.s_busy;
  it.blocked_ns <- it.blocked_ns + (t - s.s_start - s.s_busy);
  it.wali_words <- it.wali_words + s.s_words;
  span a ~name:(span_name name) ~pid ~tid s.s_start t

(** Time one host call [live] made by [pid]/[tid] on the current fiber. *)
let crossing a ~pid ~tid name live : Wasm.Rt.host_outcome =
  let s = slot a (Fiber.id (Fiber.current ())) in
  s.s_open <- true;
  s.s_busy <- 0;
  s.s_words <- 0;
  s.s_words0 <- words ();
  s.s_start <- now ();
  match live () with
  | exception e ->
      finish a s ~pid ~tid name;
      raise e
  | outcome -> (
      finish a s ~pid ~tid name;
      let it = a.cur in
      (* thread_spawn is not a syscall; the boundary's call count (and
         Strace's) covers syscalls only *)
      if name <> "thread_spawn" then begin
        it.calls <- it.calls + 1;
        if a.n_call_ns < Array.length a.call_ns then begin
          a.call_ns.(a.n_call_ns) <- float_of_int s.s_busy;
          a.n_call_ns <- a.n_call_ns + 1
        end
      end;
      match outcome with
      | Wasm.Rt.H_return [ Wasm.Values.I64 r ] when Int64.compare r 0L < 0 ->
          it.errnos <- it.errnos + 1;
          outcome
      | Wasm.Rt.H_fork register ->
          (* The engine clones the machine (memory included) after the call
             returns, then registers the child: fork work the WALI layer
             does outside [live], charged to it here. The child inherits
             the parent's step counter, so baseline it. *)
          let t0 = now () and w0 = words () in
          Wasm.Rt.H_fork
            (fun child ->
              let pid = register child in
              Hashtbl.replace a.instr_base (Int64.to_int pid) (steps_of child);
              it.busy_ns <- it.busy_ns + (now () - t0);
              it.wali_words <- it.wali_words + (words () - w0);
              pid)
      | _ -> outcome)

let interposer a : Wali.Engine.interposer =
  let ip_dispatch _eng (p : Wali.Engine.proc) name _m _args live =
    let task = p.Wali.Engine.pr_task in
    let outcome =
      crossing a ~pid:task.Kernel.Task.tgid ~tid:task.Kernel.Task.tid name live
    in
    (match (outcome, p.Wali.Engine.pr_machine) with
    | Wasm.Rt.H_exec _, Some m -> retire a ~pid:task.Kernel.Task.tid m
    | _ -> ());
    outcome
  in
  {
    Wali.Engine.ip_dispatch;
    ip_poll = (fun _ _ _ -> ());
    ip_signal = (fun _ _ _ ~signo:_ ~status:_ -> ());
    ip_virtual_signals = false;
  }

(** The accountant's own cost per crossing, in host ns, measured on a
    host call that does nothing: [(inside, total)], where [inside] is the
    part that falls within the timed window (and so in [busy]) and
    [total] what the crossing adds over calling the host function
    directly. Medians of several repetitions. *)
let calibrate () : float * float =
  let n = 2048 and reps = 9 in
  let a = make ~span_cap:(n * reps) ~call_cap:(n * reps) () in
  let live () = Wasm.Rt.H_return [] in
  let inside = Array.make reps 0.0 and total = Array.make reps 0.0 in
  Fiber.run (fun () ->
      for r = 0 to reps - 1 do
        let it = iter_zero () in
        a.cur <- it;
        let t0 = now () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (crossing a ~pid:0 ~tid:0 "calibrate" live))
        done;
        let t1 = now () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (live ()))
        done;
        let t2 = now () in
        inside.(r) <- float_of_int it.busy_ns /. float_of_int n;
        total.(r) <- float_of_int (t1 - t0 - (t2 - t1)) /. float_of_int n
      done);
  (Sample.median inside, Sample.median total)

(** A calibrated accountant. *)
let create () =
  let c_inside, c_total = calibrate () in
  { (make ()) with calib = { c_inside; c_total } }

(* Layer times of one iteration, net of the accountant's own cost: the
   in-window part comes off [busy], the rest off [interp], and
   [self_ns] reports the whole. iteration = boot + load + busy + interp
   + self, exactly. *)

let self_ns a (it : iter) = float_of_int it.crossings *. a.calib.c_total

let busy_ns a (it : iter) =
  float_of_int it.busy_ns -. (float_of_int it.crossings *. a.calib.c_inside)

let interp_ns a (it : iter) =
  float_of_int (it.i_ns - it.boot_ns - it.load_ns) -. busy_ns a it -. self_ns a it

let add_kstats (it : iter) (ks : Observe.Metrics.kstats) =
  it.dcache_hits <- it.dcache_hits + Int64.to_int ks.Observe.Metrics.dcache_hits;
  it.dcache_misses <- it.dcache_misses + Int64.to_int ks.Observe.Metrics.dcache_misses;
  it.futex_wakes <- it.futex_wakes + ks.Observe.Metrics.futex_wakes;
  it.sock_bytes <- it.sock_bytes + Int64.to_int ks.Observe.Metrics.sock_bytes;
  it.pipe_bytes <- it.pipe_bytes + Int64.to_int ks.Observe.Metrics.pipe_bytes

(** Run one job under the accountant; true when its output is correct. *)
let run_job a (j : Workloads.job) : bool =
  let it = a.cur in
  let w0 = words () in
  let t0 = now () in
  let kernel = Workloads.boot j in
  let t1 = now () in
  it.boot_ns <- it.boot_ns + (t1 - t0);
  it.boot_words <- it.boot_words + (words () - w0);
  span a ~name:"boot" ~pid:0 ~tid:0 t0 t1;
  let eng = Wali.Engine.create kernel in
  eng.Wali.Engine.interpose <- Some (interposer a);
  let status = ref (-1) in
  a.last_switch <- now ();
  a.last_switch_words <- words ();
  a.last_fid <- -1;
  Fiber.set_observer (Some (observer a));
  Fun.protect
    ~finally:(fun () -> Fiber.set_observer None)
    (fun () ->
      Fiber.run (fun () ->
          let lw = words () in
          let l0 = now () in
          let p =
            Wali.Interface.spawn_init eng ~binary:j.Workloads.j_binary
              ~argv:j.Workloads.j_argv ~env:[]
          in
          let l1 = now () in
          it.load_ns <- it.load_ns + (l1 - l0);
          it.load_words <- it.load_words + (words () - lw);
          span a ~name:"load" ~pid:0 ~tid:0 l0 l1;
          eng.Wali.Engine.on_proc_exit <-
            Some
              (fun q st ->
                (match q.Wali.Engine.pr_machine with
                | Some m -> retire a ~pid:q.Wali.Engine.pr_task.Kernel.Task.tid m
                | None -> ());
                if q == p then status := st)));
  add_kstats it kernel.Kernel.Task.stats;
  Workloads.check j ~status:!status
    ~output:(Kernel.Task.console_output kernel)
    ~calls:(Workloads.strace_calls eng.Wali.Engine.trace)

(** One traced iteration: every job, then the output checks. Returns the
    iteration's totals and whether all of it was correct. *)
let run_iteration a (jobs : Workloads.job list) : iter * bool =
  let it = iter_zero () in
  a.cur <- it;
  let w0 = words () in
  let t0 = now () in
  let ok = List.fold_left (fun ok j -> run_job a j && ok) true jobs in
  let t1 = now () in
  it.i_ns <- t1 - t0;
  it.i_words <- words () - w0;
  span a ~name:"iter" ~pid:0 ~tid:0 t0 t1;
  (it, ok)

let interp_words (it : iter) =
  it.i_words - it.boot_words - it.load_words - it.wali_words

(** Busy ns of each recorded syscall, net of the in-window floor. *)
let call_ns a = Array.init a.n_call_ns (fun i -> a.call_ns.(i) -. a.calib.c_inside)

(** The recorded spans as a Chrome trace (host-clock nanoseconds). *)
let chrome_trace a : string =
  let tb = Observe.Tracebuf.create () in
  Observe.Tracebuf.name_process tb ~pid:0 ~name:"perfbench (host clock)";
  let s = a.sp in
  let evs = ref [] in
  for i = s.sp_n - 1 downto 0 do
    evs := (s.sp_t0.(i), 1, i) :: (s.sp_t1.(i), 0, i) :: !evs
  done;
  (* by time; at equal times an end comes before a begin, and an outer
     span (recorded later) begins before the inner one *)
  let cmp (ta, ka, ia) (tb, kb, ib) =
    match compare ta tb with
    | 0 -> (
        match compare ka kb with
        | 0 -> if ka = 1 then compare ib ia else compare ia ib
        | c -> c)
    | c -> c
  in
  List.iter
    (fun (ts, k, i) ->
      let name = s.sp_name.(i) and pid = s.sp_pid.(i) and tid = s.sp_tid.(i) in
      let cat = if pid = 0 then "layer" else "wali" in
      let ts = Int64.of_int ts in
      if k = 1 then Observe.Tracebuf.span_begin tb ~name ~cat ~pid ~tid ~ts
      else Observe.Tracebuf.span_end tb ~name ~cat ~pid ~tid ~ts ())
    (List.stable_sort cmp !evs);
  Observe.Tracebuf.dump tb
