(* Tests for the simulated Linux kernel: VFS, fds, pipes, processes,
   signals, sockets, poll, futex. All run inside Fiber.run so blocking
   semantics are exercised for real. *)

open Kernel

let in_kernel f =
  let result = ref None in
  Fiber.run (fun () ->
      let k = Task.boot () in
      let init = Task.make_init k ~comm:"init" in
      let ctx = Syscalls.make_ctx k init (Futex.create ()) in
      result := Some (f k ctx));
  Option.get !result

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e ->
      Alcotest.(check string) "errno" (Errno.to_string expected)
        (Errno.to_string e)

let read_all ctx fd =
  let buf = Bytes.create 4096 in
  let b = Buffer.create 64 in
  let rec go () =
    match ok (Syscalls.read ctx ~fd ~buf ~off:0 ~len:4096) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
  in
  go ()

let write_str ctx fd s =
  let b = Bytes.of_string s in
  ok (Syscalls.write ctx ~fd ~buf:b ~off:0 ~len:(Bytes.length b))

(* ---- VFS ---- *)

let test_open_write_read () =
  in_kernel (fun _k ctx ->
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/x.txt"
             ~flags:Ktypes.(o_creat lor o_rdwr) ~mode:0o644)
      in
      Alcotest.(check int) "written" 5 (write_str ctx fd "hello");
      ignore (ok (Syscalls.lseek ctx ~fd ~offset:0 ~whence:Ktypes.seek_set));
      Alcotest.(check string) "read back" "hello" (read_all ctx fd);
      ok (Syscalls.close ctx ~fd))

let test_enoent_and_creat () =
  in_kernel (fun _k ctx ->
      expect_err Errno.ENOENT
        (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/no/such/file"
           ~flags:Ktypes.o_rdonly ~mode:0);
      expect_err Errno.ENOENT
        (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/missing"
           ~flags:Ktypes.o_rdonly ~mode:0);
      (* O_CREAT|O_EXCL on existing *)
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/e"
             ~flags:Ktypes.(o_creat lor o_wronly) ~mode:0o600)
      in
      ok (Syscalls.close ctx ~fd);
      expect_err Errno.EEXIST
        (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/e"
           ~flags:Ktypes.(o_creat lor o_excl lor o_wronly) ~mode:0o600))

let test_mkdir_readdir_unlink () =
  in_kernel (fun _k ctx ->
      ok (Syscalls.mkdirat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/d" ~mode:0o755);
      let mk name =
        let fd =
          ok
            (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd
               ~path:("/tmp/d/" ^ name)
               ~flags:Ktypes.(o_creat lor o_wronly) ~mode:0o644)
        in
        ok (Syscalls.close ctx ~fd)
      in
      mk "a"; mk "b"; mk "c";
      let dfd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/d"
             ~flags:Ktypes.o_rdonly ~mode:0)
      in
      let entries = ok (Syscalls.getdents ctx ~fd:dfd ~max:100) in
      let names = List.map (fun (n, _, _) -> n) entries in
      Alcotest.(check (list string)) "entries" [ "."; ".."; "a"; "b"; "c" ] names;
      ok (Syscalls.unlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/d/b" ~rmdir_flag:false);
      expect_err Errno.ENOTEMPTY
        (Syscalls.unlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/d" ~rmdir_flag:true);
      ok (Syscalls.unlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/d/a" ~rmdir_flag:false);
      ok (Syscalls.unlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/d/c" ~rmdir_flag:false);
      ok (Syscalls.unlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/d" ~rmdir_flag:true))

let test_symlink_resolution () =
  in_kernel (fun k ctx ->
      Vfs.write_file k.Task.fs "/tmp/target" "payload";
      ok (Syscalls.symlinkat ctx ~target:"/tmp/target" ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/ln");
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/ln"
             ~flags:Ktypes.o_rdonly ~mode:0)
      in
      Alcotest.(check string) "through symlink" "payload" (read_all ctx fd);
      let target = ok (Syscalls.readlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/ln") in
      Alcotest.(check string) "readlink" "/tmp/target" target;
      (* symlink loop *)
      ok (Syscalls.symlinkat ctx ~target:"/tmp/loop2" ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/loop1");
      ok (Syscalls.symlinkat ctx ~target:"/tmp/loop1" ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/loop2");
      expect_err Errno.ELOOP
        (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/loop1"
           ~flags:Ktypes.o_rdonly ~mode:0))

let test_rename_stat () =
  in_kernel (fun k ctx ->
      Vfs.write_file k.Task.fs "/tmp/old" "data";
      ok
        (Syscalls.renameat ctx ~olddirfd:Syscalls.at_fdcwd ~oldpath:"/tmp/old"
           ~newdirfd:Syscalls.at_fdcwd ~newpath:"/tmp/new");
      expect_err Errno.ENOENT
        (Syscalls.stat_path ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/old" ~follow:true);
      let st = ok (Syscalls.stat_path ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/new" ~follow:true) in
      Alcotest.(check int64) "size" 4L st.Ktypes.st_size;
      Alcotest.(check int) "type" Ktypes.s_ifreg (st.Ktypes.st_mode land Ktypes.s_ifmt))

let test_chdir_getcwd () =
  in_kernel (fun _k ctx ->
      ok (Syscalls.mkdirat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/wd" ~mode:0o755);
      ok (Syscalls.chdir ctx ~path:"/tmp/wd");
      Alcotest.(check string) "getcwd" "/tmp/wd" (ok (Syscalls.getcwd ctx));
      (* relative resolution *)
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"rel.txt"
             ~flags:Ktypes.(o_creat lor o_wronly) ~mode:0o644)
      in
      ok (Syscalls.close ctx ~fd);
      ignore (ok (Syscalls.stat_path ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/wd/rel.txt" ~follow:true)))

(* ---- dup/fcntl ---- *)

let test_dup_shares_offset () =
  in_kernel (fun _k ctx ->
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/dup"
             ~flags:Ktypes.(o_creat lor o_rdwr) ~mode:0o644)
      in
      let fd2 = ok (Syscalls.dup ctx ~fd) in
      ignore (write_str ctx fd "abc");
      ignore (write_str ctx fd2 "def");
      ignore (ok (Syscalls.lseek ctx ~fd ~offset:0 ~whence:Ktypes.seek_set));
      Alcotest.(check string) "shared offset" "abcdef" (read_all ctx fd2))

let test_dup3_cloexec () =
  in_kernel (fun _k ctx ->
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/ce"
             ~flags:Ktypes.(o_creat lor o_rdwr) ~mode:0o644)
      in
      let nfd = ok (Syscalls.dup3 ctx ~fd ~newfd:17 ~cloexec:true) in
      Alcotest.(check int) "dup3 target" 17 nfd;
      Alcotest.(check int) "FD_CLOEXEC set" Ktypes.fd_cloexec
        (ok (Syscalls.fcntl ctx ~fd:17 ~cmd:Ktypes.f_getfd ~arg:0)))

(* ---- pipes ---- *)

let test_pipe_blocking () =
  in_kernel (fun k ctx ->
      let r, w = ok (Syscalls.pipe2 ctx ~flags:0) in
      let got = ref "" in
      let reader = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:true in
      let rctx = Syscalls.make_ctx k reader ctx.Syscalls.futexes in
      ignore
        (Fiber.spawn "reader" (fun () ->
             let buf = Bytes.create 16 in
             let n = ok (Syscalls.read rctx ~fd:r ~buf ~off:0 ~len:16) in
             got := Bytes.sub_string buf 0 n;
             Task.exit_task k reader ~status:0));
      Fiber.yield ();
      (* reader is now blocked on the empty pipe *)
      ignore (write_str ctx w "ping");
      Fiber.yield ();
      Fiber.yield ();
      Alcotest.(check string) "reader unblocked" "ping" !got)

let test_pipe_eof_epipe () =
  in_kernel (fun _k ctx ->
      let r, w = ok (Syscalls.pipe2 ctx ~flags:0) in
      ignore (write_str ctx w "x");
      ok (Syscalls.close ctx ~fd:w);
      let buf = Bytes.create 8 in
      Alcotest.(check int) "last byte" 1 (ok (Syscalls.read ctx ~fd:r ~buf ~off:0 ~len:8));
      Alcotest.(check int) "EOF" 0 (ok (Syscalls.read ctx ~fd:r ~buf ~off:0 ~len:8));
      (* EPIPE on write to pipe with no readers *)
      let r2, w2 = ok (Syscalls.pipe2 ctx ~flags:0) in
      ok (Syscalls.close ctx ~fd:r2);
      expect_err Errno.EPIPE
        (Syscalls.write ctx ~fd:w2 ~buf:(Bytes.of_string "y") ~off:0 ~len:1);
      (* and SIGPIPE was posted *)
      Alcotest.(check bool) "SIGPIPE pending" true
        (Ktypes.Sigset.mem
           (Ktypes.Sigset.union ctx.Syscalls.t.Task.pending
              ctx.Syscalls.t.Task.group.Task.group_pending)
           Ktypes.sigpipe))

let test_pipe_nonblock () =
  in_kernel (fun _k ctx ->
      let r, _w = ok (Syscalls.pipe2 ctx ~flags:Ktypes.o_nonblock) in
      let buf = Bytes.create 8 in
      expect_err Errno.EAGAIN (Syscalls.read ctx ~fd:r ~buf ~off:0 ~len:8))

(* ---- fork/wait/signals ---- *)

let test_fork_wait () =
  in_kernel (fun k ctx ->
      let child = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:false in
      ignore
        (Fiber.spawn "child" (fun () ->
             Task.exit_task k child ~status:(Ktypes.wexit_status 7)));
      let r = ok (Syscalls.wait4 ctx ~pid:(-1) ~options:0) in
      match r with
      | Some wr ->
          Alcotest.(check int) "pid" child.Task.tgid wr.Task.wr_pid;
          Alcotest.(check int) "status" (Ktypes.wexit_status 7) wr.Task.wr_status
      | None -> Alcotest.fail "no child reaped")

(* A shell's exit code for a wait status: the exit code itself, or
   128 + signo for a process a signal ended. *)
let test_shell_exit_code () =
  let check name want status =
    Alcotest.(check int) name want (Ktypes.shell_exit_code status)
  in
  check "exit 0" 0 (Ktypes.wexit_status 0);
  check "exit 7" 7 (Ktypes.wexit_status 7);
  check "exit 255" 255 (Ktypes.wexit_status 255);
  check "exit 256 wraps" 0 (Ktypes.wexit_status 256);
  check "SIGILL (trap)" 132 (Ktypes.wsignal_status Ktypes.sigill);
  check "SIGSYS (seccomp kill)" 159 (Ktypes.wsignal_status Ktypes.sigsys);
  check "SIGKILL" 137 (Ktypes.wsignal_status Ktypes.sigkill)

let test_wait_echild () =
  in_kernel (fun _k ctx ->
      expect_err Errno.ECHILD (Syscalls.wait4 ctx ~pid:(-1) ~options:0))

let test_wnohang () =
  in_kernel (fun k ctx ->
      let child = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:false in
      ignore
        (Fiber.spawn "child" (fun () ->
             Fiber.yield ();
             Task.exit_task k child ~status:0));
      (match ok (Syscalls.wait4 ctx ~pid:(-1) ~options:Ktypes.wnohang) with
      | None -> ()
      | Some _ -> Alcotest.fail "child should still run");
      (* blocking wait reaps it *)
      match ok (Syscalls.wait4 ctx ~pid:(-1) ~options:0) with
      | Some _ -> ()
      | None -> Alcotest.fail "expected reap")

let test_signal_interrupts_read () =
  in_kernel (fun k ctx ->
      let r, _w = ok (Syscalls.pipe2 ctx ~flags:0) in
      let child = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:true in
      let cctx = Syscalls.make_ctx k child ctx.Syscalls.futexes in
      (* register a handler so SIGUSR1 is not fatal/ignored *)
      ignore
        (ok
           (Syscalls.rt_sigaction cctx ~signo:Ktypes.sigusr1
              ~action:(Some { Ktypes.sa_handler = 42; sa_mask = 0L; sa_flags = 0 })));
      let result = ref (Ok 0) in
      ignore
        (Fiber.spawn "child" (fun () ->
             let buf = Bytes.create 4 in
             result := Syscalls.read cctx ~fd:r ~buf ~off:0 ~len:4;
             Task.exit_task k child ~status:0));
      Fiber.yield ();
      ok (Syscalls.kill ctx ~pid:child.Task.tgid ~signo:Ktypes.sigusr1);
      Fiber.yield ();
      Fiber.yield ();
      expect_err Errno.EINTR !result)

let test_blocked_signal_stays_pending () =
  in_kernel (fun _k ctx ->
      let t = ctx.Syscalls.t in
      ignore
        (ok
           (Syscalls.rt_sigaction ctx ~signo:Ktypes.sigusr2
              ~action:(Some { Ktypes.sa_handler = 1000; sa_mask = 0L; sa_flags = 0 })));
      ignore
        (ok
           (Syscalls.rt_sigprocmask ctx ~how:Ktypes.sig_block
              ~set:(Some (Ktypes.Sigset.add Ktypes.Sigset.empty Ktypes.sigusr2))));
      ok (Syscalls.kill ctx ~pid:t.Task.tgid ~signo:Ktypes.sigusr2);
      Alcotest.(check bool) "not deliverable while blocked" false
        (Task.has_deliverable_signal t);
      ignore
        (ok
           (Syscalls.rt_sigprocmask ctx ~how:Ktypes.sig_unblock
              ~set:(Some (Ktypes.Sigset.add Ktypes.Sigset.empty Ktypes.sigusr2))));
      Alcotest.(check bool) "deliverable after unblock" true
        (Task.has_deliverable_signal t);
      match Task.next_signal t with
      | Some (n, a) ->
          Alcotest.(check int) "signo" Ktypes.sigusr2 n;
          Alcotest.(check int) "handler" 1000 a.Ktypes.sa_handler
      | None -> Alcotest.fail "expected pending signal")

let test_ignored_signal_discarded () =
  in_kernel (fun _k ctx ->
      let t = ctx.Syscalls.t in
      ignore
        (ok
           (Syscalls.rt_sigaction ctx ~signo:Ktypes.sigusr1
              ~action:(Some { Ktypes.sa_handler = Ktypes.sig_ign; sa_mask = 0L; sa_flags = 0 })));
      ok (Syscalls.kill ctx ~pid:t.Task.tgid ~signo:Ktypes.sigusr1);
      Alcotest.(check bool) "discarded" false (Task.has_deliverable_signal t))

let test_kill_pgroup () =
  in_kernel (fun k ctx ->
      let mk () =
        let c = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:false in
        let cctx = Syscalls.make_ctx k c ctx.Syscalls.futexes in
        ignore
          (ok
             (Syscalls.rt_sigaction cctx ~signo:Ktypes.sigterm
                ~action:(Some { Ktypes.sa_handler = 5; sa_mask = 0L; sa_flags = 0 })));
        c
      in
      let c1 = mk () and c2 = mk () in
      ok (Syscalls.setpgid ctx ~pid:c1.Task.tgid ~pgid:c1.Task.tgid);
      ok (Syscalls.setpgid ctx ~pid:c2.Task.tgid ~pgid:c1.Task.tgid);
      ok (Syscalls.kill ctx ~pid:(-c1.Task.tgid) ~signo:Ktypes.sigterm);
      Alcotest.(check bool) "c1 got it" true (Task.has_deliverable_signal c1);
      Alcotest.(check bool) "c2 got it" true (Task.has_deliverable_signal c2);
      Alcotest.(check bool) "init spared" false
        (Task.has_deliverable_signal ctx.Syscalls.t))

let test_sigkill_uncatchable () =
  in_kernel (fun _k ctx ->
      expect_err Errno.EINVAL
        (Syscalls.rt_sigaction ctx ~signo:Ktypes.sigkill
           ~action:(Some { Ktypes.sa_handler = 9; sa_mask = 0L; sa_flags = 0 }));
      (* blocking SIGKILL is silently impossible *)
      ignore
        (ok
           (Syscalls.rt_sigprocmask ctx ~how:Ktypes.sig_block
              ~set:(Some Ktypes.Sigset.full)));
      Alcotest.(check bool) "KILL not maskable" false
        (Ktypes.Sigset.mem ctx.Syscalls.t.Task.sigmask Ktypes.sigkill))

(* ---- sockets ---- *)

let test_socket_roundtrip () =
  in_kernel (fun k ctx ->
      let addr = Socket.A_inet (0x7F000001, 8080) in
      let srv = ok (Syscalls.socket ctx ~family:Ktypes.af_inet ~stype:Ktypes.sock_stream) in
      ok (Syscalls.bind ctx ~fd:srv ~addr);
      ok (Syscalls.listen ctx ~fd:srv ~backlog:8);
      let server_done = ref false in
      let st = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:true in
      let sctx = Syscalls.make_ctx k st ctx.Syscalls.futexes in
      ignore
        (Fiber.spawn "server" (fun () ->
             let cfd = ok (Syscalls.accept sctx ~fd:srv) in
             let buf = Bytes.create 64 in
             let n = ok (Syscalls.read sctx ~fd:cfd ~buf ~off:0 ~len:64) in
             let req = Bytes.sub_string buf 0 n in
             ignore (write_str sctx cfd ("echo:" ^ req));
             ok (Syscalls.close sctx ~fd:cfd);
             server_done := true;
             Task.exit_task k st ~status:0));
      Fiber.yield ();
      let cli = ok (Syscalls.socket ctx ~family:Ktypes.af_inet ~stype:Ktypes.sock_stream) in
      ok (Syscalls.connect ctx ~fd:cli ~addr);
      ignore (write_str ctx cli "hi");
      let buf = Bytes.create 64 in
      let n = ok (Syscalls.read ctx ~fd:cli ~buf ~off:0 ~len:64) in
      Alcotest.(check string) "echo" "echo:hi" (Bytes.sub_string buf 0 n);
      Alcotest.(check bool) "server finished" true !server_done)

let test_connect_refused () =
  in_kernel (fun _k ctx ->
      let cli = ok (Syscalls.socket ctx ~family:Ktypes.af_inet ~stype:Ktypes.sock_stream) in
      expect_err Errno.ECONNREFUSED
        (Syscalls.connect ctx ~fd:cli ~addr:(Socket.A_inet (0x7F000001, 9999))))

let test_socketpair () =
  in_kernel (fun _k ctx ->
      let a, b = ok (Syscalls.socketpair ctx ~family:Ktypes.af_unix) in
      ignore (write_str ctx a "ab");
      let buf = Bytes.create 8 in
      let n = ok (Syscalls.read ctx ~fd:b ~buf ~off:0 ~len:8) in
      Alcotest.(check string) "pair" "ab" (Bytes.sub_string buf 0 n))

(* ---- poll ---- *)

let test_poll () =
  in_kernel (fun _k ctx ->
      let r, w = ok (Syscalls.pipe2 ctx ~flags:0) in
      (* nothing readable yet: timeout 0 returns 0 ready *)
      let n, _ = ok (Syscalls.poll ctx ~fds:[ (r, Ktypes.pollin) ] ~timeout_ms:0) in
      Alcotest.(check int) "not ready" 0 n;
      ignore (write_str ctx w "z");
      let n, revents = ok (Syscalls.poll ctx ~fds:[ (r, Ktypes.pollin) ] ~timeout_ms:(-1)) in
      Alcotest.(check int) "ready" 1 n;
      Alcotest.(check int) "POLLIN" Ktypes.pollin (List.hd revents land Ktypes.pollin))

let test_poll_timeout_advances_clock () =
  in_kernel (fun _k ctx ->
      let r, _w = ok (Syscalls.pipe2 ctx ~flags:0) in
      let t0 = Fiber.now () in
      let n, _ = ok (Syscalls.poll ctx ~fds:[ (r, Ktypes.pollin) ] ~timeout_ms:5) in
      Alcotest.(check int) "timed out" 0 n;
      Alcotest.(check bool) "5ms elapsed" true
        (Int64.compare (Int64.sub (Fiber.now ()) t0) 5_000_000L >= 0))

(* [f]'s result and the scheduler quanta that end while it runs, all
   fibers counted. *)
let quanta_of f =
  let n = ref 0 in
  Fiber.set_observer (Some { Fiber.ob_quantum = (fun _ _ -> incr n); ob_idle = ignore });
  let r = Fun.protect ~finally:(fun () -> Fiber.set_observer None) f in
  (r, !n)

(* A timed poll with nothing ready sleeps to its deadline: it does not
   wake to re-check on the way. *)
let test_poll_sleeps_to_deadline () =
  in_kernel (fun _k ctx ->
      let r, _w = ok (Syscalls.pipe2 ctx ~flags:0) in
      let t0 = Fiber.now () in
      let (n, _), quanta =
        quanta_of (fun () -> ok (Syscalls.poll ctx ~fds:[ (r, Ktypes.pollin) ] ~timeout_ms:1000))
      in
      let elapsed = Int64.sub (Fiber.now ()) t0 in
      Alcotest.(check int) "timed out" 0 n;
      Alcotest.(check bool)
        (Printf.sprintf "returns at +1000 ms (+%Ld ns)" elapsed)
        true
        (Int64.compare elapsed 1_000_000_000L >= 0
        && Int64.compare elapsed (Int64.add 1_000_000_000L (Int64.mul 3L Fiber.tick_ns)) <= 0);
      Alcotest.(check bool) (Printf.sprintf "%d quanta <= 3" quanta) true (quanta <= 3))

(* A write to the pipe a poll sleeps on ends the poll at the write's
   virtual time, not at a later re-check. *)
let test_poll_woken_by_write () =
  in_kernel (fun k ctx ->
      let r, w = ok (Syscalls.pipe2 ctx ~flags:0) in
      let writer = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:true in
      let wctx = Syscalls.make_ctx k writer ctx.Syscalls.futexes in
      let written_at = ref 0L in
      ignore
        (Fiber.spawn "writer" (fun () ->
             Fiber.sleep_until (Int64.add (Fiber.now ()) 1_050_000L);
             ignore (write_str wctx w "z");
             written_at := Fiber.now ();
             Task.exit_task k writer ~status:0));
      let n, revents = ok (Syscalls.poll ctx ~fds:[ (r, Ktypes.pollin) ] ~timeout_ms:(-1)) in
      let late = Int64.sub (Fiber.now ()) !written_at in
      Alcotest.(check int) "ready" 1 n;
      Alcotest.(check int) "POLLIN" Ktypes.pollin (List.hd revents land Ktypes.pollin);
      Alcotest.(check bool)
        (Printf.sprintf "returns %Ld ns after the write" late)
        true
        (Int64.compare late 0L > 0 && Int64.compare late (Int64.mul 2L Fiber.tick_ns) <= 0))

(* connect wakes a poller of the listener and a blocked accept, both
   asleep on the listener's queue. *)
let test_connect_wakes_poller_and_accept () =
  in_kernel (fun k ctx ->
      let addr = Socket.A_unix "/tmp/both" in
      let srv = ok (Syscalls.socket ctx ~family:Ktypes.af_unix ~stype:Ktypes.sock_stream) in
      ok (Syscalls.bind ctx ~fd:srv ~addr);
      ok (Syscalls.listen ctx ~fd:srv ~backlog:8);
      let polled = ref 0 and accepted = ref false in
      let child name f =
        let t = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:true in
        let c = Syscalls.make_ctx k t ctx.Syscalls.futexes in
        ignore
          (Fiber.spawn name (fun () ->
               f c;
               Task.exit_task k t ~status:0))
      in
      child "poller" (fun c ->
          polled := fst (ok (Syscalls.poll c ~fds:[ (srv, Ktypes.pollin) ] ~timeout_ms:(-1))));
      child "acceptor" (fun c ->
          ignore (ok (Syscalls.accept c ~fd:srv));
          accepted := true);
      Fiber.yield ();
      Fiber.yield ();
      (* both are asleep on the listener now *)
      let cli = ok (Syscalls.socket ctx ~family:Ktypes.af_unix ~stype:Ktypes.sock_stream) in
      ok (Syscalls.connect ctx ~fd:cli ~addr);
      Fiber.yield ();
      Fiber.yield ();
      Alcotest.(check int) "poller saw the connection" 1 !polled;
      Alcotest.(check bool) "accept returned" true !accepted)

(* ---- futex ---- *)

let test_futex () =
  in_kernel (fun k ctx ->
      let cell = ref 0l in
      let load () = !cell in
      (* immediate EAGAIN when value changed *)
      expect_err Errno.EAGAIN
        (Syscalls.futex_wait ctx ~mem_id:1 ~addr:0 ~load ~expected:5l
           ~timeout_ns:None);
      let waiter = Task.clone_task k ctx.Syscalls.t ~thread:true ~share_files:true in
      let wctx = Syscalls.make_ctx k waiter ctx.Syscalls.futexes in
      let woke = ref false in
      ignore
        (Fiber.spawn "futexw" (fun () ->
             ok
               (Syscalls.futex_wait wctx ~mem_id:1 ~addr:0 ~load ~expected:0l
                  ~timeout_ns:None);
             woke := true;
             Task.exit_task k waiter ~status:0));
      Fiber.yield ();
      cell := 1l;
      Alcotest.(check int) "one woken" 1
        (Syscalls.futex_wake ctx ~mem_id:1 ~addr:0 ~n:10);
      Fiber.yield ();
      Fiber.yield ();
      Alcotest.(check bool) "waiter resumed" true !woke)

(* ---- time/misc ---- *)

let test_nanosleep () =
  in_kernel (fun _k ctx ->
      let t0 = Fiber.now () in
      ok (Syscalls.nanosleep ctx ~ns:3_000_000L);
      Alcotest.(check bool) "slept" true
        (Int64.compare (Int64.sub (Fiber.now ()) t0) 3_000_000L >= 0))

let test_proc_self_mem_exists () =
  in_kernel (fun k ctx ->
      ignore k;
      (* The kernel itself serves it; WALI is responsible for refusing. *)
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/proc/self/mem"
             ~flags:Ktypes.o_rdonly ~mode:0)
      in
      ok (Syscalls.close ctx ~fd))

let test_ids_and_umask () =
  in_kernel (fun _k ctx ->
      Alcotest.(check int) "init pid" 1 (Syscalls.getpid ctx);
      Alcotest.(check int) "ppid" 0 (Syscalls.getppid ctx);
      let old = Syscalls.umask ctx ~mask:0o077 in
      Alcotest.(check int) "default umask" 0o022 old;
      (* creation honours umask *)
      let fd =
        ok
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/um"
             ~flags:Ktypes.(o_creat lor o_wronly) ~mode:0o666)
      in
      ok (Syscalls.close ctx ~fd);
      let st = ok (Syscalls.stat_path ctx ~dirfd:Syscalls.at_fdcwd ~path:"/tmp/um" ~follow:true) in
      Alcotest.(check int) "mode masked" 0o600 (st.Ktypes.st_mode land 0o777))

(* QCheck: path resolution invariants *)

let path_gen =
  QCheck.Gen.(
    let seg = oneofl [ "a"; "b"; "c"; "."; ".."; "x1" ] in
    let* n = int_range 0 6 in
    let* segs = list_size (return n) seg in
    let* abs = bool in
    return ((if abs then "/" else "") ^ String.concat "/" segs))

let prop_resolution_stable =
  QCheck.Test.make ~name:"resolution is deterministic" ~count:200
    (QCheck.make path_gen)
    (fun p ->
      in_kernel (fun k ctx ->
          ignore ctx;
          let fs = k.Task.fs in
          Vfs.write_file fs "/a/b/c/file" "x";
          let r1 = Vfs.resolve fs ~cwd:fs.Vfs.root p in
          let r2 = Vfs.resolve fs ~cwd:fs.Vfs.root p in
          match (r1, r2) with
          | Ok i1, Ok i2 -> i1 == i2
          | Error e1, Error e2 -> e1 = e2
          | _ -> false))

let prop_fd_alloc_lowest =
  QCheck.Test.make ~name:"fds allocate lowest-free" ~count:50
    QCheck.(int_bound 20)
    (fun n ->
      in_kernel (fun _k ctx ->
          let fds =
            List.init (n + 1) (fun i ->
                ok
                  (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd
                     ~path:(Printf.sprintf "/tmp/f%d" i)
                     ~flags:Ktypes.(o_creat lor o_rdwr) ~mode:0o600))
          in
          fds = List.init (n + 1) (fun i -> i)))

(* ---- pipe writes of at most PIPE_BUF bytes are atomic ---- *)

(* Fill a pipe end so that [free] bytes of its 64 KiB stay free. *)
let fill ctx fd ~free =
  Alcotest.(check int) "filled" (65536 - free) (write_str ctx fd (String.make (65536 - free) 'f'))

let fionread ctx fd = ok (Syscalls.ioctl ctx ~fd ~request:Ktypes.fionread)
let pollout ctx fd = fst (ok (Syscalls.poll ctx ~fds:[ (fd, Ktypes.pollout) ] ~timeout_ms:0))

(* With 50 bytes free, a nonblocking 100-byte write is EAGAIN and writes
   nothing, as POSIX says of writes of at most PIPE_BUF, and poll does not
   report the pipe writable; a larger write and a socket stream's write
   still go in partly. *)
let test_pipe_atomic_nonblock () =
  in_kernel (fun _k ctx ->
      let r, w = ok (Syscalls.pipe2 ctx ~flags:Ktypes.o_nonblock) in
      fill ctx w ~free:50;
      expect_err Errno.EAGAIN (Syscalls.write ctx ~fd:w ~buf:(Bytes.make 100 'a') ~off:0 ~len:100);
      Alcotest.(check int) "nothing written" 65486 (fionread ctx r);
      Alcotest.(check int) "not writable: a PIPE_BUF write would wait" 0 (pollout ctx w);
      Alcotest.(check int) "past PIPE_BUF: partial" 50
        (ok (Syscalls.write ctx ~fd:w ~buf:(Bytes.make 5000 'b') ~off:0 ~len:5000));
      expect_err Errno.EAGAIN (Syscalls.write ctx ~fd:w ~buf:(Bytes.make 1 'c') ~off:0 ~len:1);
      let a, b = ok (Syscalls.socketpair ctx ~family:Ktypes.af_unix) in
      ignore (ok (Syscalls.fcntl ctx ~fd:a ~cmd:Ktypes.f_setfl ~arg:Ktypes.o_nonblock));
      fill ctx a ~free:50;
      Alcotest.(check int) "socket writable" 1 (pollout ctx a);
      Alcotest.(check int) "socket stream: partial" 50
        (ok (Syscalls.write ctx ~fd:a ~buf:(Bytes.make 100 'a') ~off:0 ~len:100));
      Alcotest.(check int) "socket full" 65536 (fionread ctx b))

(* A blocking 100-byte write into 50 free bytes waits with nothing
   written, so a write that gets in meanwhile (10 'b's, after a read
   frees 60 bytes) lands before it and not inside it. *)
let test_pipe_atomic_blocking () =
  in_kernel (fun k ctx ->
      let r, w = ok (Syscalls.pipe2 ctx ~flags:0) in
      fill ctx w ~free:50;
      let wt = Task.clone_task k ctx.Syscalls.t ~thread:false ~share_files:true in
      let wctx = Syscalls.make_ctx k wt ctx.Syscalls.futexes in
      let wrote = ref (-1) in
      ignore
        (Fiber.spawn "writer" (fun () ->
             wrote := write_str wctx w (String.make 100 'a');
             Task.exit_task k wt ~status:0));
      Fiber.yield ();
      Alcotest.(check int) "writer still waiting" (-1) !wrote;
      Alcotest.(check int) "nothing written yet" 65486 (fionread ctx r);
      let buf = Bytes.create 65536 in
      Alcotest.(check int) "freed" 60 (ok (Syscalls.read ctx ~fd:r ~buf ~off:0 ~len:60));
      Alcotest.(check int) "other writer" 10 (write_str ctx w (String.make 10 'b'));
      Fiber.yield ();
      Fiber.yield ();
      Alcotest.(check int) "written whole" 100 !wrote;
      let n = ok (Syscalls.read ctx ~fd:r ~buf ~off:0 ~len:65536) in
      Alcotest.(check string) "tail" (String.make 10 'b' ^ String.make 100 'a')
        (Bytes.sub_string buf (n - 110) 110))

(* ---- the pipe ring, allocated by use ---- *)

(* Nonblocking writes and reads against a reference FIFO of 65,536
   bytes. The model holds counts only: byte [i] of the stream is
   [i mod 251], so a read checks its bytes against the total read so
   far. *)
type ring_op = Write of int * bool (* length, atomic *) | Read of int

let run_ring_model ops =
  let cap = Pipe.default_capacity in
  let p = Pipe.create () in
  let written = ref 0 and read = ref 0 in
  let held () = !written - !read in
  let scratch = Bytes.create 70_001 in
  let step = function
    | Write (n, atomic) ->
        for i = 0 to n - 1 do
          Bytes.unsafe_set scratch i (Char.unsafe_chr ((!written + i) mod 251))
        done;
        let free = cap - held () in
        let expect =
          if n = 0 then Ok 0
          else if atomic && n <= Pipe.pipe_buf then if free >= n then Ok n else Error Errno.EAGAIN
          else if free = 0 then Error Errno.EAGAIN
          else Ok (min n free)
        in
        let got = Pipe.write p ~intr:(ref None) ~nonblock:true ~atomic scratch 0 n in
        if got <> expect then QCheck.Test.fail_reportf "write %d: wrong result" n;
        (match got with Ok k -> written := !written + k | Error _ -> ());
        true
    | Read n ->
        let expect =
          if n = 0 then Ok 0 else if held () = 0 then Error Errno.EAGAIN else Ok (min n (held ()))
        in
        let got = Pipe.read p ~intr:(ref None) ~nonblock:true scratch 0 n in
        if got <> expect then QCheck.Test.fail_reportf "read %d: wrong result" n;
        (match got with
        | Ok k ->
            for i = 0 to k - 1 do
              if Char.code (Bytes.get scratch i) <> (!read + i) mod 251 then
                QCheck.Test.fail_reportf "read %d: byte %d of the stream differs" n (!read + i)
            done;
            read := !read + k
        | Error _ -> ());
        true
  in
  List.for_all
    (fun op ->
      step op
      && Pipe.available p = held ()
      && Bytes.length p.Pipe.buf <= cap
      && (Pipe.poll_write p ~atomic:false land Ktypes.pollout <> 0) = (held () < cap)
      && (Pipe.poll_write p ~atomic:true land Ktypes.pollout <> 0) = (cap - held () >= Pipe.pipe_buf)
      && (Pipe.poll_read p land Ktypes.pollin <> 0) = (held () > 0))
    ops

let ring_op_gen =
  QCheck.Gen.(
    let len = frequency [ (6, int_bound 200); (2, int_bound 5000); (2, int_bound 70_000) ] in
    frequency [ (1, map2 (fun n a -> Write (n, a)) len bool); (1, map (fun n -> Read n) len) ])

let prop_ring_model =
  QCheck.Test.make ~name:"pipe ring = reference FIFO" ~count:150
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function
                | Write (n, a) -> Printf.sprintf "w%d%s" n (if a then "a" else "")
                | Read n -> Printf.sprintf "r%d" n)
              ops))
       QCheck.Gen.(list_size (int_range 1 40) ring_op_gen))
    run_ring_model

(* The ring's three edges, checked on its state: a write that grows it
   while its contents wrap, filling it to capacity, and draining it to
   empty (which puts the read position back at 0); then the hangup bits
   of each end. *)
let test_ring_edges () =
  let p = Pipe.create () in
  let intr = ref None in
  let b = Bytes.init 65536 (fun i -> Char.chr (i mod 251)) in
  let w ?(atomic = false) n = ok (Pipe.write p ~intr ~nonblock:true ~atomic b 0 n) in
  let r n = ok (Pipe.read p ~intr ~nonblock:true (Bytes.create n) 0 n) in
  Alcotest.(check int) "empty until written" 0 (Bytes.length p.Pipe.buf);
  ignore (w 40);
  ignore (r 30);
  ignore (w 40);
  Alcotest.(check (pair int int)) "wrapped in 64 bytes" (64, 30) (Bytes.length p.Pipe.buf, p.Pipe.rd);
  ignore (w 100);
  Alcotest.(check (pair int int)) "grown, contents at the front" (256, 0)
    (Bytes.length p.Pipe.buf, p.Pipe.rd);
  let out = Bytes.create 150 in
  Alcotest.(check int) "all there" 150 (ok (Pipe.read p ~intr ~nonblock:true out 0 150));
  Alcotest.(check string) "in order"
    (Bytes.sub_string b 30 10 ^ Bytes.sub_string b 0 40 ^ Bytes.sub_string b 0 100)
    (Bytes.to_string out);
  Alcotest.(check int) "drained: back at 0" 0 p.Pipe.rd;
  Alcotest.(check int) "filled to capacity" 65536 (w 65000 + w 1000);
  Alcotest.(check int) "never past capacity" 65536 (Bytes.length p.Pipe.buf);
  expect_err Errno.EAGAIN (Pipe.write p ~intr ~nonblock:true ~atomic:true b 0 1);
  ignore (r 65536);
  Alcotest.(check (pair int int)) "drained to empty" (0, 0) (Pipe.available p, p.Pipe.rd);
  let bits () = (Pipe.poll_read p, Pipe.poll_write p ~atomic:true) in
  Alcotest.(check (pair int int)) "open, empty" (0, Ktypes.pollout) (bits ());
  Pipe.drop_writer p;
  Alcotest.(check (pair int int)) "writer gone" (Ktypes.pollhup, Ktypes.pollout) (bits ());
  Pipe.drop_reader p;
  Alcotest.(check (pair int int)) "reader gone" (Ktypes.pollhup, Ktypes.pollout lor Ktypes.pollerr)
    (bits ())

let tests =
  [
    Alcotest.test_case "open/write/read" `Quick test_open_write_read;
    Alcotest.test_case "ENOENT and O_CREAT|O_EXCL" `Quick test_enoent_and_creat;
    Alcotest.test_case "mkdir/getdents/unlink/rmdir" `Quick test_mkdir_readdir_unlink;
    Alcotest.test_case "symlinks + ELOOP" `Quick test_symlink_resolution;
    Alcotest.test_case "rename + stat" `Quick test_rename_stat;
    Alcotest.test_case "chdir/getcwd/relative paths" `Quick test_chdir_getcwd;
    Alcotest.test_case "dup shares offset" `Quick test_dup_shares_offset;
    Alcotest.test_case "dup3 + cloexec" `Quick test_dup3_cloexec;
    Alcotest.test_case "pipe blocks and wakes" `Quick test_pipe_blocking;
    Alcotest.test_case "pipe EOF and EPIPE/SIGPIPE" `Quick test_pipe_eof_epipe;
    Alcotest.test_case "pipe O_NONBLOCK" `Quick test_pipe_nonblock;
    Alcotest.test_case "fork + wait4 status" `Quick test_fork_wait;
    Alcotest.test_case "shell exit code of a wait status" `Quick test_shell_exit_code;
    Alcotest.test_case "wait with no children" `Quick test_wait_echild;
    Alcotest.test_case "WNOHANG" `Quick test_wnohang;
    Alcotest.test_case "signal interrupts blocked read (EINTR)" `Quick test_signal_interrupts_read;
    Alcotest.test_case "blocked signal stays pending" `Quick test_blocked_signal_stays_pending;
    Alcotest.test_case "ignored signal discarded" `Quick test_ignored_signal_discarded;
    Alcotest.test_case "kill process group" `Quick test_kill_pgroup;
    Alcotest.test_case "SIGKILL uncatchable/unmaskable" `Quick test_sigkill_uncatchable;
    Alcotest.test_case "stream socket round-trip" `Quick test_socket_roundtrip;
    Alcotest.test_case "ECONNREFUSED" `Quick test_connect_refused;
    Alcotest.test_case "socketpair" `Quick test_socketpair;
    Alcotest.test_case "poll readiness" `Quick test_poll;
    Alcotest.test_case "poll timeout advances virtual clock" `Quick test_poll_timeout_advances_clock;
    Alcotest.test_case "futex wait/wake" `Quick test_futex;
    Alcotest.test_case "nanosleep" `Quick test_nanosleep;
    Alcotest.test_case "/proc/self/mem exists in kernel" `Quick test_proc_self_mem_exists;
    Alcotest.test_case "ids + umask" `Quick test_ids_and_umask;
    QCheck_alcotest.to_alcotest prop_resolution_stable;
    QCheck_alcotest.to_alcotest prop_fd_alloc_lowest;
    Alcotest.test_case "pipe write <= PIPE_BUF: EAGAIN, nothing written" `Quick
      test_pipe_atomic_nonblock;
    Alcotest.test_case "pipe write <= PIPE_BUF: waits, lands whole" `Quick
      test_pipe_atomic_blocking;
    Alcotest.test_case "pipe ring: grows wrapped, fills, drains" `Quick test_ring_edges;
    QCheck_alcotest.to_alcotest prop_ring_model;
    Alcotest.test_case "timed poll sleeps to its deadline" `Quick test_poll_sleeps_to_deadline;
    Alcotest.test_case "poll woken at the write's time" `Quick test_poll_woken_by_write;
    Alcotest.test_case "connect wakes a poller and an accept" `Quick
      test_connect_wakes_poller_and_accept;
  ]
