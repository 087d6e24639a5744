(** Tasks (LWPs), thread groups, signals, fork/exit/wait — the process
    model the WALI 1-to-1 design maps onto (paper §3.1, Fig 4). *)

open Ktypes

type state = Running | Zombie | Dead

type tgroup = {
  mutable actions : sigaction array; (* index 1..nsig *)
  mutable group_pending : Sigset.t;
  mutable threads : t list;
  mutable exiting : int option; (* exit_group status, packed *)
}

and t = {
  tid : int;
  mutable tgid : int;
  mutable ppid : int;
  mutable pgid : int;
  mutable sid : int;
  mutable comm : string;
  mutable uid : int;
  mutable euid : int;
  mutable gid : int;
  mutable egid : int;
  mutable cwd : Vfs.inode;
  mutable fdtab : Fdtab.t;
  mutable sigmask : Sigset.t;
  mutable pending : Sigset.t; (* thread-directed *)
  mutable group : tgroup;
  intr : (unit -> unit) option ref;
  mutable state : state;
  mutable exit_status : int; (* packed wait status *)
  child_wq : unit Waitq.t; (* this task waits here for its children *)
  mutable vm_bytes : int;
  mutable vm_peak : int;
  mutable umask : int;
  mutable alarm_gen : int; (* cancels stale alarms *)
  attn : bool ref;
      (* the attention cell a safepoint poll tests: set whenever this task
         may have something to deliver (a pending signal, a group exit);
         cleared only by the engine's poll once nothing is left *)
}

type kernel = {
  fs : Vfs.t;
  sockets : Socket.registry;
  tasks : (int, t) Hashtbl.t;
  mutable next_tid : int;
  console_out : Buffer.t;
  console_in : Pipe.t;
  mutable fg_pgid : int;
  mutable epoch_ns : int64; (* CLOCK_REALTIME base *)
  stats : Observe.Metrics.kstats; (* always-on kernel counters *)
}

let fresh_actions () = Array.make (nsig + 1) sigaction_default

(* ------------------------------------------------------------------ *)
(* Kernel boot                                                          *)
(* ------------------------------------------------------------------ *)

let console_chardev (k : kernel) : Vfs.chardev =
  {
    Vfs.cd_name = "tty";
    cd_read =
      (fun ~intr ~nonblock dst off len ->
        Pipe.read k.console_in ~intr ~nonblock dst off len);
    cd_write =
      (fun src off len ->
        Buffer.add_subbytes k.console_out src off len;
        Ok len);
    cd_poll = (fun () -> Pipe.poll_read k.console_in lor pollout);
    cd_poll_wq = [ k.console_in.Pipe.read_wq ];
  }

let null_chardev : Vfs.chardev =
  {
    Vfs.cd_name = "null";
    cd_read = (fun ~intr:_ ~nonblock:_ _ _ _ -> Ok 0);
    cd_write = (fun _ _ len -> Ok len);
    cd_poll = (fun () -> pollin lor pollout);
    cd_poll_wq = [];
  }

let zero_chardev : Vfs.chardev =
  {
    Vfs.cd_name = "zero";
    cd_read =
      (fun ~intr:_ ~nonblock:_ dst off len ->
        Bytes.fill dst off len '\000';
        Ok len);
    cd_write = (fun _ _ len -> Ok len);
    cd_poll = (fun () -> pollin lor pollout);
    cd_poll_wq = [];
  }

(* Deterministic xorshift PRNG for /dev/urandom. *)
let urandom_chardev () : Vfs.chardev =
  let state = ref 0x9E3779B97F4A7C15L in
  let next () =
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    x
  in
  {
    Vfs.cd_name = "urandom";
    cd_read =
      (fun ~intr:_ ~nonblock:_ dst off len ->
        for i = 0 to len - 1 do
          Bytes.set dst (off + i)
            (Char.chr (Int64.to_int (Int64.logand (next ()) 0xFFL)))
        done;
        Ok len);
    cd_write = (fun _ _ len -> Ok len);
    cd_poll = (fun () -> pollin lor pollout);
    cd_poll_wq = [];
  }

let boot () : kernel =
  let stats = Observe.Metrics.kstats_create () in
  let fs = Vfs.create ~stats () in
  let k =
    {
      fs;
      sockets = Socket.create_registry ();
      tasks = Hashtbl.create 64;
      next_tid = 1;
      console_out = Buffer.create 256; (* under the minor heap's 256-word limit *)
      console_in = Pipe.create ();
      fg_pgid = 1;
      epoch_ns = 1_700_000_000_000_000_000L;
      stats;
    }
  in
  let dev = Vfs.mkdir_p fs "/dev" in
  ignore (Vfs.add_chardev fs dev "null" null_chardev);
  ignore (Vfs.add_chardev fs dev "zero" zero_chardev);
  ignore (Vfs.add_chardev fs dev "urandom" (urandom_chardev ()));
  ignore (Vfs.add_chardev fs dev "random" (urandom_chardev ()));
  ignore (Vfs.add_chardev fs dev "tty" (console_chardev k));
  ignore (Vfs.add_chardev fs dev "console" (console_chardev k));
  ignore (Vfs.mkdir_p fs "/tmp");
  ignore (Vfs.mkdir_p fs "/home/user");
  ignore (Vfs.mkdir_p fs "/bin");
  ignore (Vfs.mkdir_p fs "/usr/lib");
  ignore (Vfs.mkdir_p fs "/var/run");
  Vfs.write_file fs "/etc/passwd"
    "root:x:0:0:root:/root:/bin/sh\nuser:x:1000:1000:user:/home/user:/bin/sh\n";
  Vfs.write_file fs "/etc/hostname" "wali-sim\n";
  let proc = Vfs.mkdir_p fs "/proc" in
  let self = Vfs.mkdir_p fs "/proc/self" in
  ignore proc;
  (* The endpoint WALI must refuse to open (paper §3.6). *)
  ignore (Vfs.add_gen fs self "mem" (fun () -> ""));
  ignore
    (Vfs.add_gen fs self "status" (fun () -> "Name:\twali-app\nState:\tR\n"));
  ignore
    (Vfs.add_gen fs proc "uptime" (fun () ->
         Printf.sprintf "%.2f 0.00\n"
           (Int64.to_float (Fiber.now ()) /. 1e9)));
  ignore
    (Vfs.add_gen fs proc "meminfo" (fun () ->
         "MemTotal:  8388608 kB\nMemFree:   4194304 kB\n"));
  k

(* ------------------------------------------------------------------ *)
(* Task creation                                                        *)
(* ------------------------------------------------------------------ *)

let alloc_tid k =
  let tid = k.next_tid in
  k.next_tid <- tid + 1;
  tid

(** Create the init task (tid 1). Its body is run by the caller. *)
let make_init (k : kernel) ~comm : t =
  let tid = alloc_tid k in
  let group =
    { actions = fresh_actions (); group_pending = Sigset.empty; threads = [];
      exiting = None }
  in
  let t =
    {
      tid;
      tgid = tid;
      ppid = 0;
      pgid = tid;
      sid = tid;
      comm;
      uid = 0;
      euid = 0;
      gid = 0;
      egid = 0;
      cwd = k.fs.Vfs.root;
      fdtab = Fdtab.create ();
      sigmask = Sigset.empty;
      pending = Sigset.empty;
      group;
      intr = ref None;
      state = Running;
      exit_status = 0;
      child_wq = Waitq.create ();
      vm_bytes = 0;
      vm_peak = 0;
      umask = 0o022;
      alarm_gen = 0;
      attn = ref true;
    }
  in
  group.threads <- [ t ];
  Hashtbl.replace k.tasks tid t;
  t

(** fork/clone. [thread] = CLONE_THREAD (same tgid, shared sigactions);
    [share_files] = CLONE_FILES. *)
let clone_task (k : kernel) (parent : t) ~thread ~share_files : t =
  let tid = alloc_tid k in
  let group =
    if thread then parent.group
    else
      {
        actions = Array.copy parent.group.actions;
        group_pending = Sigset.empty;
        threads = [];
        exiting = None;
      }
  in
  let t =
    {
      tid;
      tgid = (if thread then parent.tgid else tid);
      ppid = (if thread then parent.ppid else parent.tgid);
      pgid = parent.pgid;
      sid = parent.sid;
      comm = parent.comm;
      uid = parent.uid;
      euid = parent.euid;
      gid = parent.gid;
      egid = parent.egid;
      cwd = parent.cwd;
      fdtab = (if share_files then parent.fdtab else Fdtab.clone parent.fdtab);
      sigmask = parent.sigmask;
      pending = Sigset.empty;
      group;
      intr = ref None;
      state = Running;
      exit_status = 0;
      child_wq = Waitq.create ();
      vm_bytes = parent.vm_bytes;
      vm_peak = parent.vm_bytes;
      umask = parent.umask;
      alarm_gen = 0;
      attn = ref true;
    }
  in
  group.threads <- t :: group.threads;
  Hashtbl.replace k.tasks tid t;
  t

let find (k : kernel) pid = Hashtbl.find_opt k.tasks pid

let live_threads g = List.filter (fun t -> t.state = Running) g.threads

(** Arm the attention cell of every thread in [g]. *)
let arm_group g = List.iter (fun t -> t.attn := true) g.threads

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)
(* ------------------------------------------------------------------ *)

let action_of (t : t) signo = t.group.actions.(signo)

let is_ignored (t : t) signo =
  let a = action_of t signo in
  a.sa_handler = sig_ign
  || (a.sa_handler = sig_dfl && default_disposition signo = Ign)

(** Would this signal, if delivered right now, do anything? *)
let deliverable (t : t) signo =
  signo = sigkill
  || ((not (Sigset.mem t.sigmask signo)) && not (is_ignored t signo))

(** Post a signal to a specific thread. *)
let post_to_thread (k : kernel) (t : t) signo : unit =
  if t.state <> Running then ()
  else if is_ignored t signo && not (Sigset.mem t.sigmask signo) then
    () (* discarded *)
  else begin
    t.pending <- Sigset.add t.pending signo;
    t.attn := true;
    k.stats.Observe.Metrics.sig_queued <-
      k.stats.Observe.Metrics.sig_queued + 1;
    if deliverable t signo then
      match !(t.intr) with Some wake -> wake () | None -> ()
  end

(** Post a process-directed signal: any thread that can take it may. *)
let post_to_group (k : kernel) (g : tgroup) signo : unit =
  match live_threads g with
  | [] -> ()
  | threads ->
      let sample = List.hd threads in
      if is_ignored sample signo && not (List.exists (fun t -> Sigset.mem t.sigmask signo) threads)
      then ()
      else begin
        g.group_pending <- Sigset.add g.group_pending signo;
        arm_group g;
        k.stats.Observe.Metrics.sig_queued <-
          k.stats.Observe.Metrics.sig_queued + 1;
        (* Wake one thread that would deliver it. *)
        match List.find_opt (fun t -> deliverable t signo) threads with
        | Some t -> (match !(t.intr) with Some wake -> wake () | None -> ())
        | None -> ()
      end

(** kill(2) pid semantics: pid > 0 targets that process; 0 targets the
    caller's process group; -1 everything except init; -pgid a group. *)
let kill (k : kernel) (by : t) ~pid ~signo : (unit, Errno.t) result =
  if signo < 0 || signo > nsig then Error Errno.EINVAL
  else begin
    let send_group_of (t : t) =
      if signo <> 0 then post_to_group k t.group signo
    in
    if pid > 0 then
      match find k pid with
      | Some t when t.state = Running -> Ok (send_group_of t)
      | Some _ | None -> Error Errno.ESRCH
    else begin
      let pgid = if pid = 0 then by.pgid else -pid in
      let targets =
        Hashtbl.fold
          (fun _ t acc ->
            if t.state = Running && t.tid = t.tgid
               && ((pid = -1 && t.tgid <> 1 && t.tgid <> by.tgid)
                  || (pid <> -1 && t.pgid = pgid))
            then t :: acc
            else acc)
          k.tasks []
      in
      if targets = [] then Error Errno.ESRCH
      else begin
        List.iter send_group_of targets;
        Ok ()
      end
    end
  end

(** Dequeue the next deliverable signal for [t]; clears its pending bit.
    Returns the signal number and the action in force. *)
let rec next_signal (t : t) : (int * sigaction) option =
  let candidates = Sigset.union t.pending t.group.group_pending in
  let eligible = Sigset.diff candidates t.sigmask in
  let eligible =
    if Sigset.mem candidates sigkill then Sigset.add eligible sigkill
    else eligible
  in
  match Sigset.lowest eligible with
  | None -> None
  | Some signo ->
      if Sigset.mem t.pending signo then
        t.pending <- Sigset.remove t.pending signo
      else
        t.group.group_pending <- Sigset.remove t.group.group_pending signo;
      if is_ignored t signo && signo <> sigkill then next_signal t
      else Some (signo, action_of t signo)

(** Nothing pending for [t] and no group exit under way: its attention
    cell may be cleared. *)
let quiet (t : t) =
  Sigset.is_empty (Sigset.union t.pending t.group.group_pending)
  && Option.is_none t.group.exiting

let has_deliverable_signal (t : t) =
  let candidates = Sigset.union t.pending t.group.group_pending in
  Sigset.mem candidates sigkill
  || not (Sigset.is_empty (Sigset.diff candidates t.sigmask))

(** The mask a handler for [signo] under [action] runs with: [t]'s mask
    plus [sa_mask], plus [signo] itself unless SA_NODEFER is set. *)
let handler_mask (t : t) signo (action : sigaction) =
  let m = Sigset.union t.sigmask action.sa_mask in
  if action.sa_flags land sa_nodefer <> 0 then m else Sigset.add m signo

(** What a pending signal does to a task, decided once for every engine. *)
type delivery =
  | Nothing (* nothing left to deliver *)
  | Kill of int option * int
      (* the fatal signal (None for a group exit under way), packed status *)
  | Catch of int * sigaction * Sigset.t (* signo, action, handler's mask *)

(** Dequeue [t]'s next signal that does something: a group exit under
    way or a default Term or Core kills; a registered handler catches.
    SIG_IGN and the default Ign, Cont and Stop dispositions are skipped
    (job control is not modelled). *)
let rec take_signal (t : t) : delivery =
  match t.group.exiting with
  | Some status -> Kill (None, status)
  | None when not (has_deliverable_signal t) -> Nothing
  | None -> (
      match next_signal t with
      | None -> Nothing
      | Some (_, a) when a.sa_handler = sig_ign -> take_signal t
      | Some (signo, a) when a.sa_handler = sig_dfl -> (
          match default_disposition signo with
          | Ign | Cont | Stop -> take_signal t
          | Term | Core -> Kill (Some signo, wsignal_status signo))
      | Some (signo, a) -> Catch (signo, a, handler_mask t signo a))

(* ------------------------------------------------------------------ *)
(* Exit and wait                                                        *)
(* ------------------------------------------------------------------ *)

let children (k : kernel) (parent : t) : t list =
  Hashtbl.fold
    (fun _ t acc ->
      if t.ppid = parent.tgid && t.tid = t.tgid && t.state <> Dead then t :: acc
      else acc)
    k.tasks []

let reap (k : kernel) (child : t) =
  child.state <- Dead;
  Hashtbl.remove k.tasks child.tid

(** Terminate one task. For a thread-group leader this zombifies the
    process; other threads just disappear. *)
let exit_task (k : kernel) (t : t) ~(status : int) : unit =
  if t.state <> Running then ()
  else begin
    (* The fd table may be shared (CLONE_FILES); only its last live user
       tears it down. *)
    let fdtab_shared =
      Hashtbl.fold
        (fun _ o acc ->
          acc || (o != t && o.state = Running && o.fdtab == t.fdtab))
        k.tasks false
    in
    if not fdtab_shared then Fdtab.close_all ~sock_registry:k.sockets t.fdtab;
    t.exit_status <- status;
    t.group.threads <- List.filter (fun x -> x != t) t.group.threads;
    let is_process = t.tid = t.tgid in
    if is_process then begin
      (* Reparent children to init. *)
      List.iter
        (fun c ->
          c.ppid <- 1;
          if c.state = Zombie then reap k c)
        (children k t);
      t.state <- Zombie;
      match find k t.ppid with
      | Some parent ->
          let chld_action = parent.group.actions.(sigchld) in
          if chld_action.sa_handler = sig_ign then reap k t
          else begin
            ignore (Waitq.wake_all parent.child_wq ());
            post_to_group k parent.group sigchld
          end
      | None -> reap k t
    end
    else begin
      t.state <- Dead;
      Hashtbl.remove k.tasks t.tid
    end
  end

type wait_result = { wr_pid : int; wr_status : int }

(** wait4. [pid] selector: -1 any child, >0 specific, 0 same pgroup,
    <-1 pgroup -pid. *)
let wait4 (k : kernel) (t : t) ~pid ~options : (wait_result option, Errno.t) result =
  let matches (c : t) =
    if pid = -1 then true
    else if pid > 0 then c.tgid = pid
    else if pid = 0 then c.pgid = t.pgid
    else c.pgid = -pid
  in
  let rec go () =
    let kids = children k t in
    let candidates = List.filter matches kids in
    if candidates = [] then Error Errno.ECHILD
    else
      match List.find_opt (fun c -> c.state = Zombie) candidates with
      | Some z ->
          let r = { wr_pid = z.tgid; wr_status = z.exit_status } in
          reap k z;
          Ok (Some r)
      | None ->
          if options land wnohang <> 0 then Ok None
          else
            match Waitq.wait ~intr:t.intr [ t.child_wq ] with
            | Waitq.Interrupted -> Error Errno.EINTR
            | Waitq.Woken () | Waitq.Timeout -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Time                                                                 *)
(* ------------------------------------------------------------------ *)

let clock_gettime (k : kernel) clock : int64 =
  match clock with
  | c when c = clock_realtime -> Int64.add k.epoch_ns (Fiber.now ())
  | _ -> Fiber.now ()

let charge_vm (t : t) delta =
  t.vm_bytes <- t.vm_bytes + delta;
  if t.vm_bytes > t.vm_peak then t.vm_peak <- t.vm_bytes

(** Console helpers for tests and examples. *)
let console_output (k : kernel) = Buffer.contents k.console_out

let console_feed (k : kernel) (s : string) =
  ignore (Pipe.push k.console_in (Bytes.of_string s) 0 (String.length s))
