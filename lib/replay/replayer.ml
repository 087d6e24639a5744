(** The replayer: re-runs a module with the simulated kernel swapped out
    for the trace log.

    Data-class syscalls are injected — result and kernel-written memory
    bytes come straight from the log and the kernel is never consulted.
    Live-class calls (fork/exec/exit/thread_spawn/rt_sigaction) re-execute
    through the engine, because they create real engine structure, and
    their outcomes are validated against the log. The recorded global
    event order doubles as the scheduler oracle: a fiber whose next
    action is not the globally-next record spin-yields until it is, which
    forces the recorded interleaving; a bounded stall counter turns any
    impossible schedule into a divergence instead of a livelock. Signal
    deliveries are re-injected when a machine's counted safepoint-poll
    counter reaches the recorded coordinate.

    The first mismatch — name, args, result, memory delta, exit status,
    ordering — aborts the run and is reported with the event index and a
    readable expected/actual diff. *)

open Wasm
open Wali

type divergence = {
  d_index : int; (* event index in the trace (-1: pre-run check) *)
  d_pid : int;
  d_kind : string; (* "name" | "args" | "result" | "memory" | ... *)
  d_expected : string;
  d_actual : string;
}

exception Diverged of divergence

let pp_divergence (d : divergence) : string =
  Printf.sprintf
    "divergence at record #%d (pid %d): %s mismatch\n  expected: %s\n  actual:   %s"
    d.d_index d.d_pid d.d_kind d.d_expected d.d_actual

type outcome = {
  rp_status : int; (* replayed init exit status (packed) *)
  rp_consumed : int;
  rp_total : int;
  rp_divergence : divergence option;
}

let converged (o : outcome) = o.rp_divergence = None

(* How many consecutive scheduler yields without global-cursor progress
   before we call the replay stalled. Generous: every blocked fiber
   burns one per scheduler round-trip while others make real progress. *)
let stall_limit = 200_000

type state = {
  st_trace : Trace.t;
  mutable st_cursor : int; (* next event index to consume *)
  st_queues : (int, int Queue.t) Hashtbl.t; (* pid -> its event indices *)
  st_polls : (int, int ref) Hashtbl.t; (* pid -> safepoint-poll counter *)
  mutable st_stall : int;
  mutable st_div : divergence option;
  mutable st_live : (Trace.syscall * int) option;
      (* the record of the live-class call in flight, checked at its exit
         (such calls never block, so no other call runs before it) *)
}

let queue st pid = Recorder.per_pid st.st_queues pid Queue.create
let counter st pid = Recorder.per_pid st.st_polls pid (fun () -> ref 0)

let make (trace : Trace.t) : state =
  let st =
    { st_trace = trace; st_cursor = 0; st_queues = Hashtbl.create 8; st_polls = Hashtbl.create 8;
      st_stall = 0; st_div = None; st_live = None }
  in
  Array.iteri
    (fun i -> function
      | Trace.E_syscall { sc_pid = pid; _ } | Trace.E_signal { sg_pid = pid; _ }
      | Trace.E_exit { ex_pid = pid; _ } ->
          Queue.push i (queue st pid))
    trace.Trace.tr_events;
  st

let diverge st ~index ~pid ~kind ~expected ~actual : 'a =
  let d =
    { d_index = index; d_pid = pid; d_kind = kind; d_expected = expected;
      d_actual = actual }
  in
  if st.st_div = None then st.st_div <- Some d;
  raise (Diverged d)

let fmt_call name (args : int64 array) =
  Printf.sprintf "%s(%s)" name (Trace.pp_args args)

(* One more scheduler yield without progress of the global cursor; past
   [stall_limit] the pid's [doing] cannot happen in the recorded order. *)
let stall st pid ~doing =
  st.st_stall <- st.st_stall + 1;
  if st.st_stall > stall_limit then
    diverge st ~index:st.st_cursor ~pid ~kind:"schedule"
      ~expected:
        (Printf.sprintf "globally-next record %s"
           (Trace.pp_event st.st_trace.Trace.tr_events.(st.st_cursor)))
      ~actual:(doing ());
  Fiber.yield ()

(* Wait until pid's next recorded event is the globally-next one,
   yielding to let the fibers that own the intervening records run.
   [doing] describes the pid's action, for a divergence report. *)
let rec wait_turn st pid ~(doing : unit -> string) : Trace.event * int =
  match Queue.peek_opt (queue st pid) with
  | None ->
      diverge st ~index:(Array.length st.st_trace.Trace.tr_events) ~pid
        ~kind:"extra event" ~expected:"no more events for this pid"
        ~actual:(doing ())
  | Some i when i = st.st_cursor -> (st.st_trace.Trace.tr_events.(i), i)
  | Some i ->
      stall st pid ~doing:(fun () ->
          Printf.sprintf "stalled at %s (pid's next record is #%d)" (doing ()) i);
      wait_turn st pid ~doing

let consume st pid =
  let q = queue st pid in
  (match Queue.take_opt q with
  | Some i -> assert (i = st.st_cursor)
  | None -> assert false);
  st.st_cursor <- st.st_cursor + 1;
  st.st_stall <- 0

let hex (s : string) =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (String.to_seq s))))

(* Replay-side memory handling for an injected record: grow to the
   recorded size, then apply the recorded kernel writes. *)
let apply_regions st (mem : Rt.Memory.t) (r : Trace.syscall) (idx : int) =
  let size = Rt.Memory.size_bytes mem in
  List.iter
    (fun region ->
      let addr = Trace.region_addr region in
      let len = Trace.region_len region in
      if addr < 0 || len < 0 || addr + len > size then
        diverge st ~index:idx ~pid:r.Trace.sc_pid ~kind:"memory"
          ~expected:(Printf.sprintf "region [%d, +%d) within %d-byte memory" addr len size)
          ~actual:"region out of bounds on replay"
      else
        match region with
        | Trace.R_bytes (_, s) ->
            Bytes.blit_string s 0 mem.Rt.Memory.data addr (String.length s)
        | Trace.R_zeros (_, n) -> Bytes.fill mem.Rt.Memory.data addr n '\000')
    r.Trace.sc_regions

(* For live-class calls the kernel wrote memory itself; check it matches
   the recording and report the delta when it does not. *)
let validate_regions st (mem : Rt.Memory.t) (r : Trace.syscall) (idx : int) =
  let size = Rt.Memory.size_bytes mem in
  List.iter
    (fun region ->
      let addr = Trace.region_addr region in
      let len = Trace.region_len region in
      if addr >= 0 && len > 0 && addr + len <= size then begin
        let actual = Bytes.sub_string mem.Rt.Memory.data addr len in
        let expected =
          match region with
          | Trace.R_bytes (_, s) -> s
          | Trace.R_zeros (_, n) -> String.make n '\000'
        in
        if actual <> expected then
          diverge st ~index:idx ~pid:r.Trace.sc_pid ~kind:"memory"
            ~expected:
              (Printf.sprintf "%s wrote [%d, +%d) = %s" r.Trace.sc_name addr
                 len (hex expected))
            ~actual:(Printf.sprintf "[%d, +%d) = %s" addr len (hex actual))
      end)
    r.Trace.sc_regions

let rec inject_signals st (p : Engine.proc) (m : Rt.machine) =
  let pid = m.Rt.m_pid in
  let c = counter st pid in
  match Queue.peek_opt (queue st pid) with
  | Some i -> (
      match st.st_trace.Trace.tr_events.(i) with
      | Trace.E_signal sg ->
          if sg.Trace.sg_poll < !c then
            diverge st ~index:i ~pid ~kind:"signal"
              ~expected:
                (Printf.sprintf "delivery of signal %d at safepoint %d"
                   sg.Trace.sg_signo sg.Trace.sg_poll)
              ~actual:
                (Printf.sprintf "safepoint %d already passed without it" !c)
          else if sg.Trace.sg_poll = !c then begin
            (* ordering: other pids' earlier records must land first *)
            while st.st_cursor < i do
              stall st pid ~doing:(fun () ->
                  Printf.sprintf "stalled delivering signal %d to pid %d (record #%d)"
                    sg.Trace.sg_signo pid i)
            done;
            consume st pid;
            match sg.Trace.sg_status with
            | Some status -> raise (Engine.Killed_by status)
            | None ->
                let signo = sg.Trace.sg_signo in
                let actions =
                  p.Engine.pr_task.Kernel.Task.group.Kernel.Task.actions
                in
                let action =
                  if signo >= 0 && signo < Array.length actions then
                    actions.(signo)
                  else Kernel.Ktypes.sigaction_default
                in
                if
                  action.Kernel.Ktypes.sa_handler = Kernel.Ktypes.sig_dfl
                  || action.Kernel.Ktypes.sa_handler = Kernel.Ktypes.sig_ign
                then
                  diverge st ~index:i ~pid ~kind:"signal"
                    ~expected:
                      (Printf.sprintf
                         "a handler registered for signal %d (recorded run ran one)"
                         signo)
                    ~actual:"no handler registered at this point on replay"
                else begin
                  Engine.run_signal_handler p m ~signo ~action;
                  (* further deliveries may be recorded at this same
                     safepoint (or the handler's own polls advanced c) *)
                  inject_signals st p m
                end
          end
      | _ -> ())
  | None -> ()

let h_poll st (p : Engine.proc) (m : Rt.machine) =
  incr (counter st m.Rt.m_pid);
  inject_signals st p m

let h_enter st _ (m : Rt.machine) name ~base ~arity =
  let pid = m.Rt.m_pid and arg = Engine.arg m base in
  let doing () = fmt_call name (Array.init arity arg) in
  let ev, idx = wait_turn st pid ~doing in
  match ev with
  | Trace.E_exit ex ->
      (* the recorded run died at this point (seccomp kill, fatal trap)
         without completing the call; reproduce the death. The exit
         record itself is consumed and validated at the process exit. *)
      raise (Engine.Killed_by ex.Trace.ex_status)
  | Trace.E_signal sg ->
      diverge st ~index:idx ~pid ~kind:"signal"
        ~expected:
          (Printf.sprintf "delivery of signal %d at safepoint %d"
             sg.Trace.sg_signo sg.Trace.sg_poll)
        ~actual:(Printf.sprintf "syscall entry %s" (doing ()))
  | Trace.E_syscall r ->
      let recorded = r.Trace.sc_args in
      let rec same i = i = arity || (Int64.equal recorded.(i) (arg i) && same (i + 1)) in
      if r.Trace.sc_name <> name || not (Array.length recorded = arity && same 0) then
        diverge st ~index:idx ~pid
          ~kind:(if r.Trace.sc_name <> name then "name" else "args")
          ~expected:(fmt_call r.Trace.sc_name recorded) ~actual:(doing ());
      consume st pid;
      if Writeset.classify name = Writeset.Live then begin
        (* re-executed live, and checked against the record at its exit *)
        st.st_live <- Some (r, idx);
        None
      end
      else begin
        (* inject: the kernel is not consulted *)
        let mem = Rt.memory0 m in
        let cur = Rt.Memory.size_pages mem in
        if r.Trace.sc_pages > cur then
          ignore (Rt.Memory.grow mem (r.Trace.sc_pages - cur));
        apply_regions st mem r idx;
        (* replicate the safepoint polls the live handler performs
           internally, so delivery coordinates stay aligned *)
        for _ = 1 to Writeset.polls_inside name do
          match m.Rt.poll_hook with Some f -> f m | None -> ()
        done;
        Some r.Trace.sc_result
      end

let h_exit st _ (m : Rt.machine) name ~base ~arity ~ns:_ result =
  match (st.st_live, result) with
  | Some (r, idx), Some actual ->
      st.st_live <- None;
      if actual <> r.Trace.sc_result then begin
        let doing = fmt_call name (Array.init arity (Engine.arg m base)) in
        diverge st ~index:idx ~pid:m.Rt.m_pid ~kind:"result"
          ~expected:(Printf.sprintf "%s = %Ld" doing r.Trace.sc_result)
          ~actual:(Printf.sprintf "%s = %Ld" doing actual)
      end;
      validate_regions st (Rt.memory0 m) r idx
  | _ -> st.st_live <- None

(* Validate a process exit against its recorded exit event. *)
let on_exit st (q : Engine.proc) (status : int) =
  let pid = q.Engine.pr_task.Kernel.Task.tid in
  let doing () = Printf.sprintf "exit with status 0x%x" status in
  let ev, idx = wait_turn st pid ~doing in
  match ev with
  | Trace.E_exit ex ->
      if ex.Trace.ex_status <> status then
        diverge st ~index:idx ~pid ~kind:"exit status"
          ~expected:(Printf.sprintf "exit with status 0x%x" ex.Trace.ex_status)
          ~actual:(doing ());
      consume st pid
  | other ->
      diverge st ~index:idx ~pid ~kind:"exit"
        ~expected:(Trace.pp_event other) ~actual:(doing ())

let hook (st : state) : Engine.hook =
  {
    Engine.h_enter = h_enter st;
    h_exit = h_exit st;
    h_poll = h_poll st;
    h_event = (function Engine.Proc_exit (q, status) -> on_exit st q status | _ -> ());
    h_virtual_signals = true;
  }

(** Replay [trace] against [binary]. [setup] re-creates the boot-time
    VFS environment (needed only when the recorded run execve'd binaries
    out of the VFS). The digest check refuses a binary other than the
    recorded one unless [check_digest:false]. A verbose [strace] and an
    [observe] sink see the replay as they would the recorded run. *)
let replay ?(setup = fun (_ : Kernel.Task.kernel) -> ())
    ?(check_digest = true) ?strace ?observe ~(trace : Trace.t)
    ~(binary : string) () : outcome =
  let total = Array.length trace.Trace.tr_events in
  let st = make trace and status = ref 0 in
  (* a divergence found outside the run: pid 0, the first one wins *)
  let found index kind expected actual =
    if st.st_div = None then
      st.st_div <-
        Some { d_index = index; d_pid = 0; d_kind = kind; d_expected = expected; d_actual = actual }
  in
  let next () =
    if st.st_cursor < total then Trace.pp_event trace.Trace.tr_events.(st.st_cursor)
    else "run completion"
  in
  let digest = Digest.string binary and h = trace.Trace.tr_header in
  if check_digest && digest <> h.Trace.h_digest then
    found (-1) "binary digest" (Digest.to_hex h.Trace.h_digest) (Digest.to_hex digest)
  else begin
    let kernel = Kernel.Task.boot () in
    setup kernel;
    let poll_scheme =
      Option.value (Trace.poll_scheme_of_name h.Trace.h_poll) ~default:Code.Poll_loops
    in
    (* A sink observing the replay regenerates its metrics, trace and
       profile, and a verbose tracer its lines, from the recorded
       outcomes, not a live kernel. *)
    (match
       Interface.run_program ~kernel ~poll_scheme ?trace:strace ?observe ~hook:(hook st) ~binary
         ~argv:h.Trace.h_argv ~env:h.Trace.h_env ()
     with
    | code, _, _ -> status := code
    | exception Diverged _ -> () (* the first divergence is already in st *)
    | exception Fiber.Deadlock names ->
        found st.st_cursor "schedule" (next ())
          ("scheduler deadlock (suspended: " ^ String.concat ", " names ^ ")"));
    if st.st_cursor < total then
      found st.st_cursor "coverage" (next ())
        (Printf.sprintf "replay finished after %d of %d records" st.st_cursor total);
    if !status <> trace.Trace.tr_status then
      found total "final status"
        (Printf.sprintf "0x%x" trace.Trace.tr_status)
        (Printf.sprintf "0x%x" !status)
  end;
  { rp_status = !status; rp_consumed = st.st_cursor; rp_total = total; rp_divergence = st.st_div }
