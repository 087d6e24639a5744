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

type t = {
  kernel : Kernel.Task.kernel;
  futexes : Kernel.Futex.t;
  trace : Strace.t;
  mutable policy : Seccomp.t;
  mutable poll_scheme : Code.poll_scheme;
  mutable fuse : bool; (* run the macro-op fusion pass on new images *)
  procs : proc Procs.t; (* task tid -> proc *)
  mutable next_mem_id : int;
  mutable live_procs : int;
  mutable on_proc_exit : (proc -> int -> unit) option;
  mutable interpose : interposer option;
  mutable observe : Observe.Sink.t option;
      (* observability sink — deliberately separate from [interpose] so
         tracing/metrics/profiling compose with record/replay *)
}

(** Record/replay (and other tooling) hooks around the thin interface.
    [ip_dispatch] wraps every WALI host call — the [run] thunk performs
    the live seccomp check + kernel dispatch, and the interposer may call
    it (recording) or substitute its own outcome (replay). [ip_poll] is
    invoked at every counted safepoint poll, before signal delivery, so
    both sides of record/replay agree on delivery positions. [ip_signal]
    observes each virtual signal delivery ([status] is the packed wait
    status for fatal dispositions, [None] for handler runs). *)
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
      (* true (replay): kernel-pending signals are never popped at
         safepoints — deliveries come exclusively from the interposer's
         [ip_poll] re-injection. Live process exits still post e.g.
         SIGCHLD to kernel tasks; without this, those would be delivered
         a second time on top of the injected recorded delivery. *)
}

(** One registry per engine: with an observability sink, the tracer is a
    view over the sink's registry (a [~trace] passed with [~observe] must
    already be one), so every crossing updates exactly one registry. *)
let create ?(poll_scheme = Code.Poll_loops) ?(fuse = true) ?trace
    ?(policy = Seccomp.allow_all ()) ?observe (kernel : Kernel.Task.kernel) :
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
  (match observe with
  | Some o -> Observe.Sink.set_kstats o kernel.Kernel.Task.stats
  | None -> ());
  {
    kernel;
    futexes = Kernel.Futex.create ();
    trace;
    policy;
    poll_scheme;
    fuse;
    procs = Procs.create 16;
    next_mem_id = 1;
    live_procs = 0;
    on_proc_exit = None;
    interpose = None;
    observe;
  }

let fresh_mem_id eng =
  let id = eng.next_mem_id in
  eng.next_mem_id <- id + 1;
  id

let proc_of eng (m : Rt.machine) : proc =
  match Procs.find eng.procs m.Rt.m_pid with
  | p -> p
  | exception Not_found ->
      Values.trap "no WALI process for machine (pid %d)" m.Rt.m_pid


(** The machine's current Wasm call stack, outermost first — the folded
    profile's frame order. *)
let machine_stack (m : Rt.machine) : string list =
  List.init m.Rt.depth (fun i -> m.Rt.frames.(i).Rt.fr_code.Code.fc_name)

let register_proc eng (p : proc) =
  Procs.replace eng.procs p.pr_task.Kernel.Task.tid p;
  eng.live_procs <- eng.live_procs + 1;
  match eng.observe with
  | Some o ->
      let t = p.pr_task in
      Observe.Sink.proc_start o ~pid:t.Kernel.Task.tgid ~tid:t.Kernel.Task.tid
        ~comm:t.Kernel.Task.comm ~ts:(Fiber.now ())
  | None -> ()

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
    treated as default Term. Also the entry point the replayer uses to
    re-inject recorded deliveries. *)
let run_signal_handler _eng (p : proc) (m : Rt.machine) ~(signo : int)
    ~(action : Kernel.Ktypes.sigaction) : unit =
  let task = p.pr_task in
  let open Kernel.Ktypes in
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

(** Deliver every currently-deliverable signal on machine [m]. Handlers
    run re-entrantly on the interrupted machine (sig_poll in Fig 5);
    default dispositions terminate via [Killed_by]. *)
let rec deliver_signals eng (p : proc) (m : Rt.machine) : unit =
  let task = p.pr_task in
  (match task.Kernel.Task.group.Kernel.Task.exiting with
  | Some status -> raise (Killed_by status)
  | None -> ());
  let suppressed =
    match eng.interpose with
    | Some ip -> ip.ip_virtual_signals
    | None -> false
  in
  if (not suppressed) && Kernel.Task.has_deliverable_signal task then begin
    match Kernel.Task.next_signal task with
    | None -> ()
    | Some (signo, action) ->
        let open Kernel.Ktypes in
        let observe status =
          match eng.interpose with
          | Some ip -> ip.ip_signal eng p m ~signo ~status
          | None -> ()
        in
        let delivered () =
          let ks = eng.kernel.Kernel.Task.stats in
          ks.Observe.Metrics.sig_delivered <-
            ks.Observe.Metrics.sig_delivered + 1
        in
        let pid = task.Kernel.Task.tgid and tid = task.Kernel.Task.tid in
        if action.sa_handler = sig_ign then deliver_signals eng p m
        else if action.sa_handler = sig_dfl then begin
          match default_disposition signo with
          | Ign | Cont -> deliver_signals eng p m
          | Stop -> deliver_signals eng p m (* job control simplified *)
          | Term | Core ->
              let status = wsignal_status signo in
              observe (Some status);
              delivered ();
              (match eng.observe with
              | Some o ->
                  Observe.Sink.signal_fatal o ~pid ~tid ~signo
                    ~ts:(Fiber.now ())
              | None -> ());
              raise (Killed_by status)
        end
        else begin
          observe None;
          delivered ();
          (match eng.observe with
          | Some o ->
              Observe.Sink.signal_begin o ~pid ~tid ~signo ~ts:(Fiber.now ());
              (* the handler may exit the process via Killed_by — close
                 the span either way so the trace stays well-nested *)
              Fun.protect
                ~finally:(fun () ->
                  Observe.Sink.signal_end o ~pid ~tid ~signo
                    ~ts:(Fiber.now ()))
                (fun () -> run_signal_handler eng p m ~signo ~action)
          | None -> run_signal_handler eng p m ~signo ~action);
          (* more signals may have arrived meanwhile *)
          deliver_signals eng p m
        end
  end

(** A counted safepoint poll of process [p] running machine [m]. Once
    nothing is left to deliver it clears the task's attention cell, so
    the machine's next polls stay in the interpreter until the kernel
    arms the cell again. With an observer or an interposer the cell is
    never cleared: they see every poll. *)
let poll eng (p : proc) (m : Rt.machine) : unit =
  (match eng.observe with
  | Some o -> Observe.Sink.safepoint_poll o
  | None -> ());
  (match eng.interpose with Some ip -> ip.ip_poll eng p m | None -> ());
  deliver_signals eng p m;
  let task = p.pr_task in
  if Option.is_none eng.observe && Option.is_none eng.interpose
     && Kernel.Task.quiet task
  then task.Kernel.Task.attn := false

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
    cell and, when profiling, the profiler's call/return sample hook.
    Fork children inherit both hooks through [Machine.clone] but must be
    pointed at their own task's cell. *)
let new_machine eng (inst : Rt.instance) ~(task : Kernel.Task.t) : Rt.machine =
  let m = Rt.Machine.create inst in
  m.Rt.m_pid <- task.Kernel.Task.tid;
  m.Rt.m_attn <- task.Kernel.Task.attn;
  m.Rt.poll_hook <- Some (poll_hook eng);
  (match eng.observe with
  | Some o when Observe.Sink.profiling o ->
      m.Rt.prof_hook <-
        Some
          (fun mm ->
            Observe.Sink.prof_sample o ~pid:mm.Rt.m_pid ~steps:mm.Rt.steps
              ~stack:(fun () -> machine_stack mm))
  | _ -> ());
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
  (match eng.observe with
  | Some o ->
      let fs = cm.Code.cm_fuse in
      Observe.Sink.note_fusion o ~ops_before:fs.Code.fs_ops_before
        ~ops_after:fs.Code.fs_ops_after ~sites:fs.Code.fs_sites
  | None -> ());
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
    execve replaces it): charge its last steps to the profile and retire
    its instruction count. *)
let retire_machine eng (m : Rt.machine) : unit =
  match eng.observe with
  | Some o ->
      if Observe.Sink.profiling o then begin
        Observe.Sink.prof_sample o ~pid:m.Rt.m_pid ~steps:m.Rt.steps
          ~stack:(fun () -> machine_stack m);
        Observe.Sink.prof_reset o ~pid:m.Rt.m_pid
      end;
      Observe.Sink.instr_retire o ~pid:m.Rt.m_pid ~steps:m.Rt.steps
        ~fused:m.Rt.fused
  | None -> ()

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
  eng.live_procs <- eng.live_procs - 1;
  Option.iter (retire_machine eng) p.pr_machine;
  (match eng.observe with
  | Some o ->
      Observe.Sink.proc_exit o ~pid:task.Task.tgid ~tid:task.Task.tid ~status
        ~ts:(Fiber.now ())
  | None -> ());
  (match eng.on_proc_exit with
  | Some f -> f p status
  | None -> ());
  Procs.remove eng.procs task.Task.tid

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
      (match (r, eng.observe) with
      | Interp.R_trap _, Some o -> Observe.Sink.trap o
      | _ -> ());
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
