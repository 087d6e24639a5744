(** The WALI engine: process/thread model (1-to-1, instance-per-thread),
    virtual signal delivery at safepoints, and process lifecycle
    (paper §3.1, §3.3).

    Each WALI process is one kernel task running one explicit-state Wasm
    machine on its own fiber. Threads share the process image (memory,
    mmap manager, sigactions) but get their own machine — the engine-side
    equivalent of instance-per-thread, since all per-thread execution
    state (value stack, call frames) lives in the machine. *)

open Wasm

(* Raised out of the interpreter at a safepoint when a fatal signal or an
   exit_group from a sibling thread terminates the task. Not a Wasm trap:
   it deliberately unwinds the whole machine run. *)
exception Killed_by of int (* packed wait status *)

type pshared = {
  ps_mmap : Mmap_mgr.t;
  mutable ps_argv : string array;
  mutable ps_env : string array;
  ps_mem_id : int; (* futex address-space id *)
  mutable ps_brk : int;
  ps_heap_base : int;
  ps_binary : string; (* the loaded .wasm image; keeps its compiled image cached *)
}

type proc = {
  pr_task : Kernel.Task.t;
  pr_sys : Kernel.Syscalls.ctx;
  mutable pr_shared : pshared;
  mutable pr_machine : Rt.machine option;
  mutable pr_result : Interp.run_result option; (* set when the task ends *)
}

(* Processes by task tid, hashed as themselves: every crossing and every
   armed poll finds its process without the polymorphic hash. *)
module Procs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash tid = tid
end)

(** What a process or machine lifecycle event, or a signal delivery,
    tells a hook. A signal is delivered to a handler ([Handler_begin],
    then [Handler_end] even when the handler ends the process) or ends
    the process with a packed wait status ([Fatal]). *)
type delivery = Handler_begin | Handler_end | Fatal of int

type event =
  | Proc_start of proc
  | Proc_exit of proc * int (* packed wait status *)
  | Machine_start of Rt.machine (* a new image, a thread, a fork child *)
  | Machine_retire of Rt.machine (* its task exits, or execve replaces it *)
  | Image of Code.fuse_stats (* a process image was built *)
  | Signal of proc * Rt.machine * int * delivery

(** The one observer of the WALI boundary (DESIGN §4g): the observability
    sink, the recorder, the replayer and the verbose tracer are each one
    of these, and {!both} runs two as one.

    [h_enter p m name ~base ~arity] sees a crossing of import [name]
    whose i64 arguments are the stack slots [base, base + arity) of [m];
    they stay there until [h_exit]. [Some r] substitutes result [r] for
    running the call (the replayer alone does). [h_exit] sees the result
    after [ns] virtual ns, or [None] for a call that never returns (a
    seccomp kill, a trap, a replayed death). [h_poll] sees every counted
    safepoint poll, before signal delivery. With [h_virtual_signals]
    (replay) kernel-pending signals are never popped at safepoints: the
    hook's [h_poll] re-injects the recorded deliveries instead. *)
type hook = {
  h_enter : proc -> Rt.machine -> string -> base:int -> arity:int -> int64 option;
  h_exit :
    proc -> Rt.machine -> string -> base:int -> arity:int -> ns:int64 -> int64 option -> unit;
  h_poll : proc -> Rt.machine -> unit;
  h_event : event -> unit;
  h_virtual_signals : bool;
}

let nop_hook =
  {
    h_enter = (fun _ _ _ ~base:_ ~arity:_ -> None);
    h_exit = (fun _ _ _ ~base:_ ~arity:_ ~ns:_ _ -> ());
    h_poll = (fun _ _ -> ());
    h_event = ignore;
    h_virtual_signals = false;
  }

(** [a] then [b]; [b]'s substituted result wins. *)
let both a b =
  {
    h_enter =
      (fun p m name ~base ~arity ->
        let ra = a.h_enter p m name ~base ~arity in
        match b.h_enter p m name ~base ~arity with None -> ra | rb -> rb);
    h_exit =
      (fun p m name ~base ~arity ~ns r ->
        a.h_exit p m name ~base ~arity ~ns r;
        b.h_exit p m name ~base ~arity ~ns r);
    h_poll = (fun p m -> a.h_poll p m; b.h_poll p m);
    h_event = (fun e -> a.h_event e; b.h_event e);
    h_virtual_signals = a.h_virtual_signals || b.h_virtual_signals;
  }

(** Argument [i] of a crossing whose arguments start at slot [base]. *)
let arg (m : Rt.machine) base i = Bytes.get_int64_ne m.Rt.stack (8 * (base + i))

(** The machine's current Wasm call stack, outermost first — the folded
    profile's frame order. *)
let machine_stack (m : Rt.machine) : string list =
  List.init m.Rt.depth (fun i -> m.Rt.frames.(i).Rt.fr_code.Code.fc_name)

(* What a call that never returns reports as its result. *)
let eperm = -Kernel.Errno.to_code Kernel.Errno.EPERM

(** The verbose tracer (WALI_VERBOSE): one strace line per crossing. *)
let verbose_hook (tr : Strace.t) : hook =
  {
    nop_hook with
    h_exit =
      (fun p m name ~base ~arity ~ns:_ r ->
        Strace.print tr ~pid:p.pr_task.Kernel.Task.tgid ~name ~arity (arg m base)
          ~result:(Option.value r ~default:(Int64.of_int eperm)));
  }

(** The observability sink as a hook: syscall and signal spans, process
    lanes, the profiler's call/return samples, instructions retired,
    fusion coverage, polls and traps. *)
let sink_hook (o : Observe.Sink.t) : hook =
  let module S = Observe.Sink in
  let ids (p : proc) = (p.pr_task.Kernel.Task.tgid, p.pr_task.Kernel.Task.tid) in
  let sample (m : Rt.machine) =
    S.prof_sample o ~pid:m.Rt.m_pid ~steps:m.Rt.steps ~stack:(fun () -> machine_stack m)
  in
  {
    h_enter =
      (fun p _ name ~base:_ ~arity:_ ->
        let pid, tid = ids p in
        S.syscall_begin o ~pid ~tid ~name ~ts:(Fiber.now ());
        None);
    h_exit =
      (fun p m name ~base:_ ~arity:_ ~ns r ->
        let pid, tid = ids p in
        S.syscall_end o ~pid ~tid ~name ~ts:(Fiber.now ()) ~ns
          ~result:(Option.value r ~default:(Int64.of_int eperm)) ~stack:(fun () -> machine_stack m));
    h_poll = (fun _ _ -> S.safepoint_poll o);
    h_event =
      (fun ev ->
        let ts = Fiber.now () in
        match ev with
        | Proc_start p ->
            let pid, tid = ids p in
            S.proc_start o ~pid ~tid ~comm:p.pr_task.Kernel.Task.comm ~ts
        | Proc_exit (p, status) ->
            (match p.pr_result with Some (Interp.R_trap _) -> S.trap o | _ -> ());
            let pid, tid = ids p in
            S.proc_exit o ~pid ~tid ~status ~ts
        | Machine_start m ->
            (* a fork child clones its parent's counters: retire only
               what it executes from here on *)
            S.instr_baseline o ~pid:m.Rt.m_pid ~steps:m.Rt.steps ~fused:m.Rt.fused;
            if S.profiling o then m.Rt.prof_hook <- Some sample
        | Machine_retire m ->
            (* charge its last steps to the profile, retire its count *)
            if S.profiling o then begin
              sample m;
              S.prof_reset o ~pid:m.Rt.m_pid
            end;
            S.instr_retire o ~pid:m.Rt.m_pid ~steps:m.Rt.steps ~fused:m.Rt.fused
        | Image fs ->
            S.note_fusion o ~ops_before:fs.Code.fs_ops_before
              ~ops_after:fs.Code.fs_ops_after ~sites:fs.Code.fs_sites
        | Signal (p, _, signo, d) -> (
            let pid, tid = ids p in
            match d with
            | Handler_begin -> S.signal_begin o ~pid ~tid ~signo ~ts
            | Handler_end -> S.signal_end o ~pid ~tid ~signo ~ts
            | Fatal _ -> S.signal_fatal o ~pid ~tid ~signo ~ts));
    h_virtual_signals = false;
  }

type t = {
  kernel : Kernel.Task.kernel;
  futexes : Kernel.Futex.t;
  trace : Strace.t;
  mutable policy : Seccomp.t;
  poll_scheme : Code.poll_scheme;
  fuse : bool; (* fuse superinstructions into new images *)
  procs : proc Procs.t; (* task tid -> proc *)
  mutable next_mem_id : int;
  mutable on_proc_exit : (proc -> int -> unit) option;
  hook : hook option;
  mutable interpose : interposer option; (* perfbench's accountant only *)
}

(** The boxed edge around every host call, kept as an adapter for the
    benchmark's layer accountant ([perfbench/accountant.ml]); nothing else
    sets it. [ip_dispatch] wraps each crossing: the [run] thunk performs
    the seccomp check and the kernel dispatch, and returns the call's
    boxed outcome. [ip_poll], [ip_signal] and [ip_virtual_signals] are
    {!hook}'s [h_poll], fatal and handler deliveries, and
    [h_virtual_signals]. *)
and interposer = {
  ip_dispatch :
    t ->
    proc ->
    string ->
    Rt.machine ->
    Values.value array ->
    (unit -> Rt.host_outcome) ->
    Rt.host_outcome;
  ip_poll : t -> proc -> Rt.machine -> unit;
  ip_signal : t -> proc -> Rt.machine -> signo:int -> status:int option -> unit;
  ip_virtual_signals : bool;
}

(** One registry per engine: with an observability sink, the tracer is a
    view over the sink's registry (a [~trace] passed with [~observe] must
    already be one), so every crossing updates exactly one registry. The
    engine's one hook runs the verbose tracer, the sink and [hook], in
    that order. *)
let create ?(poll_scheme = Code.Poll_loops) ?(fuse = true) ?trace
    ?(policy = Seccomp.allow_all ()) ?observe ?hook (kernel : Kernel.Task.kernel) :
    t =
  let trace =
    match (trace, observe) with
    | Some t, Some o when Strace.metrics t != Observe.Sink.metrics o ->
        invalid_arg
          "Engine.create: ~trace and ~observe must share one metrics registry"
    | Some t, _ -> t
    | None, Some o -> Strace.of_metrics (Observe.Sink.metrics o)
    | None, None -> Strace.create ()
  in
  let sink o =
    Observe.Sink.set_kstats o kernel.Kernel.Task.stats;
    sink_hook o
  in
  let hooks =
    List.filter_map Fun.id
      [ (if trace.Strace.verbose then Some (verbose_hook trace) else None);
        Option.map sink observe; hook ]
  in
  {
    kernel;
    futexes = Kernel.Futex.create ();
    trace;
    policy;
    poll_scheme;
    fuse;
    procs = Procs.create 16;
    next_mem_id = 1;
    on_proc_exit = None;
    hook = (match hooks with [] -> None | h :: hs -> Some (List.fold_left both h hs));
    interpose = None;
  }

let event eng e = match eng.hook with Some h -> h.h_event e | None -> ()

let fresh_mem_id eng =
  let id = eng.next_mem_id in
  eng.next_mem_id <- id + 1;
  id

let proc_of eng (m : Rt.machine) : proc =
  match Procs.find eng.procs m.Rt.m_pid with
  | p -> p
  | exception Not_found ->
      Values.trap "no WALI process for machine (pid %d)" m.Rt.m_pid

let register_proc eng (p : proc) =
  Procs.replace eng.procs p.pr_task.Kernel.Task.tid p;
  event eng (Proc_start p)

(* ------------------------------------------------------------------ *)
(* Virtual signal delivery at safepoints (paper §3.3, Fig 5)            *)
(* ------------------------------------------------------------------ *)

(* Resolve a registered handler (a Wasm function-pointer, i.e. an index
   into table 0) to a callable function. *)
let handler_func (inst : Rt.instance) idx : Rt.func_inst option =
  if Array.length inst.Rt.i_tables = 0 then None
  else
    match Rt.Table.get inst.Rt.i_tables.(0) idx with
    | Some fidx -> Some inst.Rt.i_funcs.(fidx)
    | None -> None
    | exception Values.Trap _ -> None

(** Run the registered Wasm handler for [signo] with the mask discipline:
    block the signal itself (unless SA_NODEFER) plus sa_mask for the
    duration — nested delivery therefore defers identical signals, the
    stack-based structure of §3.3. A dangling handler function pointer is
    treated as default Term. The hook sees [Handler_begin], then
    [Handler_end] even when the handler ends the process, so the trace
    stays well-nested. Also the entry point the replayer uses to
    re-inject recorded deliveries, which its hook therefore sees too. *)
let run_signal_handler eng (p : proc) (m : Rt.machine) ~(signo : int)
    ~(action : Kernel.Ktypes.sigaction) : unit =
  let task = p.pr_task in
  let open Kernel.Ktypes in
  let run () =
    match handler_func m.Rt.m_inst action.sa_handler with
    | None ->
        (* dangling function pointer: treat as default Term *)
        raise (Killed_by (wsignal_status signo))
    | Some f ->
        let old_mask = task.Kernel.Task.sigmask in
        let block =
          if action.sa_flags land sa_nodefer <> 0 then action.sa_mask
          else Sigset.add action.sa_mask signo
        in
        task.Kernel.Task.sigmask <- Sigset.union old_mask block;
        let result = Interp.call_nested m f [ Values.I32 (Int32.of_int signo) ] in
        task.Kernel.Task.sigmask <- old_mask;
        (match result with
        | Interp.R_done _ -> ()
        | Interp.R_trap msg -> Values.trap "trap in signal handler: %s" msg
        | Interp.R_exit code ->
            (* exit in a handler ends the process; the interrupted frames
               never resume *)
            raise (Killed_by (wexit_status code)))
  in
  match eng.hook with
  | Some h ->
      h.h_event (Signal (p, m, signo, Handler_begin));
      Fun.protect ~finally:(fun () -> h.h_event (Signal (p, m, signo, Handler_end))) run
  | None -> run ()

(** Deliver every currently-deliverable signal on machine [m]. Handlers
    run re-entrantly on the interrupted machine (sig_poll in Fig 5);
    default dispositions terminate via [Killed_by]. *)
let rec deliver_signals eng (p : proc) (m : Rt.machine) : unit =
  let task = p.pr_task in
  (match task.Kernel.Task.group.Kernel.Task.exiting with
  | Some status -> raise (Killed_by status)
  | None -> ());
  let suppressed =
    (match eng.hook with Some h -> h.h_virtual_signals | None -> false)
    || match eng.interpose with Some ip -> ip.ip_virtual_signals | None -> false
  in
  if (not suppressed) && Kernel.Task.has_deliverable_signal task then begin
    match Kernel.Task.next_signal task with
    | None -> ()
    | Some (signo, action) ->
        let open Kernel.Ktypes in
        let delivered status =
          (match eng.interpose with
          | Some ip -> ip.ip_signal eng p m ~signo ~status
          | None -> ());
          let ks = eng.kernel.Kernel.Task.stats in
          ks.Observe.Metrics.sig_delivered <- ks.Observe.Metrics.sig_delivered + 1
        in
        if action.sa_handler = sig_ign then deliver_signals eng p m
        else if action.sa_handler = sig_dfl then begin
          match default_disposition signo with
          | Ign | Cont -> deliver_signals eng p m
          | Stop -> deliver_signals eng p m (* job control simplified *)
          | Term | Core ->
              let status = wsignal_status signo in
              delivered (Some status);
              event eng (Signal (p, m, signo, Fatal status));
              raise (Killed_by status)
        end
        else begin
          delivered None;
          run_signal_handler eng p m ~signo ~action;
          (* more signals may have arrived meanwhile *)
          deliver_signals eng p m
        end
  end

(** A counted safepoint poll of process [p] running machine [m]. Once
    nothing is left to deliver it clears the task's attention cell, so
    the machine's next polls stay in the interpreter until the kernel
    arms the cell again. With any hook or an interposer the cell is never
    cleared: they see every poll. *)
let poll eng (p : proc) (m : Rt.machine) : unit =
  (match eng.hook with Some h -> h.h_poll p m | None -> ());
  (match eng.interpose with Some ip -> ip.ip_poll eng p m | None -> ());
  deliver_signals eng p m;
  let task = p.pr_task in
  if eng.hook == None && eng.interpose == None && Kernel.Task.quiet task then
    task.Kernel.Task.attn := false

(** The poll on the way back from a syscall, run only while the
    machine's attention cell is armed. Linux delivers pending signals on
    return to userspace from any syscall; this mirrors it (complementing
    the compiler-inserted safepoints of §3.3). The crossing calls it
    after its span closes, which keeps the trace well-nested even when a
    delivery terminates the process. *)
let safepoint eng (p : proc) (m : Rt.machine) : unit =
  if !(m.Rt.m_attn) && Option.is_some m.Rt.poll_hook then poll eng p m

let poll_hook eng : Rt.machine -> unit = fun m -> poll eng (proc_of eng m) m

(** A fresh machine for [task] (a new process image or a spawned
    thread), with the engine's safepoint poll on the task's attention
    cell. Fork children inherit the poll hook through [Machine.clone] but
    must be pointed at their own task's cell. *)
let new_machine eng (inst : Rt.instance) ~(task : Kernel.Task.t) : Rt.machine =
  let m = Rt.Machine.create inst in
  m.Rt.m_pid <- task.Kernel.Task.tid;
  m.Rt.m_attn <- task.Kernel.Task.attn;
  m.Rt.poll_hook <- Some (poll_hook eng);
  event eng (Machine_start m);
  m

(* ------------------------------------------------------------------ *)
(* Image construction                                                   *)
(* ------------------------------------------------------------------ *)

(* Decode + compile is pure in the binary (and the compile options), and
   [Link.instantiate] never mutates the compiled module — memories,
   globals and tables are built fresh per instance — so compiled images
   are shared across processes and repeated execs of the same binary.
   The table is weak in its key: a binary's images (one per poll scheme
   and fusion setting) live while some caller holds the binary string
   (a live process's [ps_binary], a caller's own copy) and go at the
   next major collection after the last one is dropped. Keys compare by
   content, so an equal copy of a live binary hits. Compilation consumes
   no virtual time, so the cache cannot perturb any deterministic
   counter; it only removes redundant host work. *)
module Images = Ephemeron.K1.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let compile_cache : ((Code.poll_scheme * bool) * Code.compiled) list Images.t =
  Images.create 16

let compile_cached ~poll ~fuse binary : Code.compiled =
  let images = Option.value (Images.find_opt compile_cache binary) ~default:[] in
  match List.assoc_opt (poll, fuse) images with
  | Some cm -> cm
  | None ->
      let cm = Code.compile_module ~poll ~fuse (Binary.decode binary) in
      Images.replace compile_cache binary (((poll, fuse), cm) :: images);
      cm

(** Compile and instantiate a Wasm binary as a fresh process image. *)
let build_image eng ~(resolver : Link.resolver) ~(binary : string)
    ~(name : string) : Rt.instance =
  let cm = compile_cached ~poll:eng.poll_scheme ~fuse:eng.fuse binary in
  event eng (Image cm.Code.cm_fuse);
  let inst, start = Link.instantiate ~name resolver cm in
  (match start with
  | Some _ -> () (* start functions run on first invoke by convention *)
  | None -> ());
  inst

let heap_base_of (inst : Rt.instance) : int =
  match Rt.export_opt inst "__heap_base" with
  | Some (Rt.E_global g) -> (
      match Rt.Global.get g with
      | Values.I32 v -> Int32.to_int v
      | _ -> 1 lsl 20)
  | _ -> 1 lsl 20

let make_pshared eng ~(inst : Rt.instance) ~argv ~env ~binary : pshared =
  let heap_base = heap_base_of inst in
  {
    ps_mmap = Mmap_mgr.create ~heap_base;
    ps_argv = Array.of_list argv;
    ps_env = Array.of_list env;
    ps_mem_id = fresh_mem_id eng;
    ps_brk = Mmap_mgr.align_up heap_base;
    ps_heap_base = heap_base;
    ps_binary = binary;
  }

(** Open the console on fds 0,1,2 of a task (for the initial process). *)
let setup_stdio eng (task : Kernel.Task.t) =
  let ctx = Kernel.Syscalls.make_ctx eng.kernel task eng.futexes in
  let open_tty flags =
    match
      Kernel.Syscalls.openat ctx ~dirfd:Kernel.Syscalls.at_fdcwd
        ~path:"/dev/console" ~flags ~mode:0
    with
    | Ok fd -> fd
    | Error e -> failwith ("setup_stdio: " ^ Kernel.Errno.to_string e)
  in
  ignore (open_tty Kernel.Ktypes.o_rdonly);
  ignore (open_tty Kernel.Ktypes.o_wronly);
  ignore (open_tty Kernel.Ktypes.o_wronly)

(* ------------------------------------------------------------------ *)
(* Task completion                                                      *)
(* ------------------------------------------------------------------ *)

(** Close the books on a machine that stops running (its task exits, or
    execve replaces it). *)
let retire_machine eng (m : Rt.machine) : unit = event eng (Machine_retire m)

(* Tear the task down with a packed wait status. With [group] (exit_group,
   a trap or a fatal signal, and any end of the group leader) the whole
   thread group goes: every sibling is armed and woken, and dies at its
   next poll with the status of the first exit. *)
let do_exit eng (p : proc) ~group ~(status : int) : unit =
  let open Kernel in
  let task = p.pr_task in
  let g = task.Task.group in
  let status =
    if group || task.Task.tid = task.Task.tgid then begin
      if Option.is_none g.Task.exiting then g.Task.exiting <- Some status;
      Task.arm_group g;
      List.iter
        (fun (sib : Task.t) ->
          if sib != task then
            match !(sib.Task.intr) with Some wake -> wake () | None -> ())
        g.Task.threads;
      Option.get g.Task.exiting
    end
    else status
  in
  Task.exit_task eng.kernel task ~status;
  Option.iter (retire_machine eng) p.pr_machine;
  event eng (Proc_exit (p, status));
  (match eng.on_proc_exit with
  | Some f -> f p status
  | None -> ());
  Procs.remove eng.procs task.Task.tid;
  (* The group's last thread is gone and every observer has had its look:
     the image's linear memory is the one thing worth reusing (DESIGN,
     "Linear-memory lifetime"). *)
  if g.Task.threads = [] then
    Option.iter
      (fun (m : Rt.machine) -> Array.iter Rt.Memory.release m.Rt.m_inst.Rt.i_memories)
      p.pr_machine

(** The body that every process/thread fiber runs. Wasm traps terminate
    the process like fatal signals (SIGILL-style status), which is how
    e.g. call_indirect signature violations surface. *)
let run_machine_body eng (p : proc) (m : Rt.machine) ~fresh_entry
    ~(entry : Rt.func_inst option) ~(args : Values.value list) : unit =
  let outcome =
    try
      `Result
        (if fresh_entry then
           match entry with
           | Some f -> Interp.invoke m f args
           | None -> Interp.R_trap "no entry function"
         else Interp.resume m)
    with Killed_by status -> `Killed status
  in
  match outcome with
  | `Killed status ->
      p.pr_result <- Some (Interp.R_exit (status lsr 8));
      do_exit eng p ~group:true ~status
  | `Result r ->
      p.pr_result <- Some r;
      let status =
        let open Kernel.Ktypes in
        match r with
        | Interp.R_done _ -> wexit_status 0
        | Interp.R_exit code -> wexit_status code
        | Interp.R_trap _ -> wsignal_status Kernel.Ktypes.sigill
      in
      (* a thread's return ends only that thread *)
      let group = match r with Interp.R_done _ -> false | _ -> true in
      do_exit eng p ~group ~status
