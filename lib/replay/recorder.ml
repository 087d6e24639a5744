(** The recorder: runs a WALI program with an [Engine.interposer] that
    logs every host call, signal delivery and process exit into a
    {!Trace.t}.

    The recorder is a pure observer — every call still executes live
    against the simulated kernel, and the guest sees identical behavior.
    For each call it captures the result plus the guest-memory bytes the
    kernel wrote (per the {!Writeset} oracle, or a whole-memory diff for
    the few calls the oracle cannot enumerate), and the linear-memory
    size afterwards so replay can mirror growth. Signal deliveries are
    logged with the per-machine safepoint-poll counter value, which is
    the replay-stable coordinate for re-injection. *)

open Wasm
open Wali

type t = {
  mutable rc_events : Trace.event list; (* reversed *)
  rc_polls : (int, int ref) Hashtbl.t; (* pid -> counted safepoint polls *)
}

let make () = { rc_events = []; rc_polls = Hashtbl.create 8 }

let emit rc ev = rc.rc_events <- ev :: rc.rc_events

let counter rc pid =
  match Hashtbl.find_opt rc.rc_polls pid with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add rc.rc_polls pid r;
      r

(* thread_spawn args arrive as i32s; everything else is i64. *)
let arg_i64 (v : Values.value) : int64 =
  match v with
  | Values.I64 x -> x
  | Values.I32 x -> Int64.of_int32 x
  | _ -> 0L

(* Extract the recorded bytes for the oracle's (addr, len) regions,
   clamped to the current memory bounds. *)
let capture_regions (mem : Rt.Memory.t) (spans : (int * int) list) :
    Trace.region list =
  let size = Rt.Memory.size_bytes mem in
  List.filter_map
    (fun (addr, len) ->
      if addr < 0 || len <= 0 || addr >= size then None
      else
        let len = min len (size - addr) in
        Some (Trace.R_bytes (addr, Bytes.sub_string mem.Rt.Memory.data addr len)))
    spans

(* Whole-memory diff for syscalls whose write-set is not statically
   enumerable (brk). The pre-image is zero-extended if memory grew.
   Nearby changed spans (gap <= 32 bytes) merge into one region. *)
let diff_regions ~(pre : Bytes.t) ~(post : Bytes.t) : Trace.region list =
  let n = Bytes.length post in
  let pre_at i = if i < Bytes.length pre then Bytes.get pre i else '\000' in
  let spans = ref [] in
  let start = ref (-1) and last = ref (-1) in
  for i = 0 to n - 1 do
    if Bytes.get post i <> pre_at i then begin
      if !start < 0 then start := i
      else if i - !last > 32 then begin
        spans := (!start, !last - !start + 1) :: !spans;
        start := i
      end;
      last := i
    end
  done;
  if !start >= 0 then spans := (!start, !last - !start + 1) :: !spans;
  List.rev_map
    (fun (a, len) -> Trace.R_bytes (a, Bytes.sub_string post a len))
    !spans

let interposer (rc : t) : Engine.interposer =
  let ip_dispatch _eng _p name (m : Rt.machine) args live =
    let mem = Rt.memory0 m in
    let argv = Array.map arg_i64 args in
    let pre_whole =
      if Writeset.needs_whole name then Some (Bytes.copy mem.Rt.Memory.data)
      else None
    in
    let emit_call (result : int64) =
      let regions =
        match pre_whole with
        | Some pre -> diff_regions ~pre ~post:mem.Rt.Memory.data
        | None -> (
            match Writeset.written ~mem name argv result with
            | Writeset.Regions spans -> capture_regions mem spans
            | Writeset.Whole -> diff_regions ~pre:Bytes.empty ~post:mem.Rt.Memory.data)
      in
      emit rc
        (Trace.E_syscall
           {
             Trace.sc_pid = m.Rt.m_pid;
             sc_name = name;
             sc_args = argv;
             sc_result = result;
             sc_pages = Rt.Memory.size_pages mem;
             sc_regions = regions;
           })
    in
    let outcome = live () in
    match outcome with
    | Rt.H_return [ Values.I64 r ] ->
        emit_call r;
        outcome
    | Rt.H_return [ Values.I32 r ] ->
        emit_call (Int64.of_int32 r);
        outcome
    | Rt.H_return _ ->
        emit_call 0L;
        outcome
    | Rt.H_exit code ->
        emit_call (Int64.of_int code);
        outcome
    | Rt.H_exec mk ->
        emit_call 0L;
        Rt.H_exec mk
    | Rt.H_trap _ ->
        emit_call 0L;
        outcome
    | Rt.H_fork cb ->
        (* the record is written when the engine loop registers the
           child — after the clone, before either side resumes — so it
           precedes both sides' subsequent calls in the global order *)
        Rt.H_fork
          (fun child ->
            let pid = cb child in
            emit_call pid;
            pid)
  in
  {
    Engine.ip_dispatch;
    ip_poll = (fun _ _ m -> incr (counter rc m.Rt.m_pid));
    ip_signal =
      (fun _ _ m ~signo ~status ->
        emit rc
          (Trace.E_signal
             {
               Trace.sg_pid = m.Rt.m_pid;
               sg_poll = !(counter rc m.Rt.m_pid);
               sg_signo = signo;
               sg_status = status;
             }));
    ip_virtual_signals = false;
  }

type run = {
  r_trace : Trace.t;
  r_status : int; (* packed wait status of the initial process *)
  r_output : string; (* console output of the recorded run *)
  r_result : Interp.run_result option;
}

(** Record one program run. Mirrors [Interface.run_program], with the
    engine's exit notification shared between status capture and exit
    logging (the engine has a single [on_proc_exit] slot). *)
let record ?(app = "") ?(poll_scheme = Code.Poll_loops) ?(fuse = true) ?strace
    ?policy ?(kernel : Kernel.Task.kernel option) ?observe ~(binary : string)
    ~(argv : string list) ~(env : string list) () : run =
  let kernel = match kernel with Some k -> k | None -> Kernel.Task.boot () in
  (* The sink rides in the engine's dedicated observe slot, so recording
     (which owns the single interposer slot) and observability compose. *)
  let eng =
    Engine.create ~poll_scheme ~fuse ?trace:strace ?policy ?observe kernel
  in
  let rc = make () in
  eng.Engine.interpose <- Some (interposer rc);
  let status = ref 0 in
  let result = ref None in
  (match observe with Some o -> Observe.Sink.attach o | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match observe with Some o -> Observe.Sink.detach o | None -> ())
    (fun () ->
      Fiber.run (fun () ->
          let p = Interface.spawn_init eng ~binary ~argv ~env in
          eng.Engine.on_proc_exit <-
            Some
              (fun q st ->
                emit rc
                  (Trace.E_exit
                     {
                       Trace.ex_pid = q.Engine.pr_task.Kernel.Task.tid;
                       ex_status = st;
                     });
                if q == p then begin
                  status := st;
                  result := q.Engine.pr_result
                end)));
  let trace =
    {
      Trace.tr_header =
        {
          Trace.h_app = app;
          h_argv = argv;
          h_env = env;
          h_digest = Digest.string binary;
          h_poll = Trace.poll_scheme_name poll_scheme;
        };
      tr_events = Array.of_list (List.rev rc.rc_events);
      tr_status = !status;
    }
  in
  {
    r_trace = trace;
    r_status = !status;
    r_output = Kernel.Task.console_output kernel;
    r_result = !result;
  }
