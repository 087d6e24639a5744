(** The recorder: runs a WALI program with an [Engine.hook] that logs
    every host call, signal delivery and process exit into a
    {!Trace.t}.

    The recorder is a pure observer — every call still executes live
    against the simulated kernel, and the guest sees identical behavior.
    For each call it captures the result plus the guest-memory bytes the
    kernel wrote (per the {!Writeset} oracle), and the linear-memory
    size afterwards so replay can mirror growth. Signal deliveries are
    logged with the per-machine safepoint-poll counter value, which is
    the replay-stable coordinate for re-injection. *)

open Wasm
open Wali

type t = {
  mutable rc_events : Trace.event list; (* reversed *)
  rc_polls : (int, int ref) Hashtbl.t; (* pid -> counted safepoint polls *)
  mutable rc_brk : int;
      (* the program break at the entry of the last brk, which never
         blocks, so no other call runs before its exit *)
}

let make () = { rc_events = []; rc_polls = Hashtbl.create 8; rc_brk = 0 }

let emit rc ev = rc.rc_events <- ev :: rc.rc_events

(** [tbl]'s value for [pid], made by [mk] on first use. *)
let per_pid tbl pid mk =
  match Hashtbl.find_opt tbl pid with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add tbl pid v;
      v

let counter rc pid = per_pid rc.rc_polls pid (fun () -> ref 0)

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

let hook (rc : t) : Engine.hook =
  let h_enter (p : Engine.proc) _ name ~base:_ ~arity:_ =
    if name = "brk" then rc.rc_brk <- p.Engine.pr_shared.Engine.ps_brk;
    None
  in
  let h_exit _ (m : Rt.machine) name ~base ~arity ~ns:_ = function
    | None -> ()
    | Some result ->
        let mem = Rt.memory0 m in
        let args = Array.init arity (Engine.arg m base) in
        let regions = capture_regions mem (Writeset.written ~mem ~brk:rc.rc_brk name args result) in
        emit rc
          (Trace.E_syscall
             {
               Trace.sc_pid = m.Rt.m_pid;
               sc_name = name;
               sc_args = args;
               sc_result = result;
               sc_pages = Rt.Memory.size_pages mem;
               sc_regions = regions;
             })
  in
  let signal (m : Rt.machine) signo status =
    emit rc
      (Trace.E_signal
         { Trace.sg_pid = m.Rt.m_pid; sg_poll = !(counter rc m.Rt.m_pid); sg_signo = signo;
           sg_status = status })
  in
  {
    Engine.h_enter;
    h_exit;
    h_poll = (fun _ m -> incr (counter rc m.Rt.m_pid));
    h_event =
      (function
      | Engine.Signal (_, m, signo, Engine.Handler_begin) -> signal m signo None
      | Engine.Signal (_, m, signo, Engine.Fatal status) -> signal m signo (Some status)
      | Engine.Proc_exit (q, status) ->
          emit rc
            (Trace.E_exit { Trace.ex_pid = q.Engine.pr_task.Kernel.Task.tid; ex_status = status })
      | _ -> ());
    h_virtual_signals = false;
  }

type run = {
  r_trace : Trace.t;
  r_status : int; (* packed wait status of the initial process *)
  r_output : string; (* console output of the recorded run *)
  r_result : Interp.run_result option;
}

(** Record one program run: {!Interface.run_program} with the recorder's
    hook after the tracer's and the sink's. *)
let record ?(app = "") ?(poll_scheme = Code.Poll_loops) ?fuse ?strace ?policy
    ?kernel ?observe ~(binary : string) ~(argv : string list)
    ~(env : string list) () : run =
  let rc = make () in
  let status, output, result =
    Interface.run_program ?kernel ~poll_scheme ?fuse ?trace:strace ?policy ?observe
      ~hook:(hook rc) ~binary ~argv ~env ()
  in
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
      tr_status = status;
    }
  in
  { r_trace = trace; r_status = status; r_output = output; r_result = result }
