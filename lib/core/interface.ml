(** The WALI host-function interface: ~150 name-bound virtual syscalls
    plus the argv/env support methods (paper §3, §3.4).

    Each handler unmarshals i64 arguments, performs address-space
    translation into the caller's linear memory (zero-copy where the
    kernel ABI allows), invokes the kernel syscall, and encodes the
    result with the raw kernel convention: an i64 that is non-negative on
    success and -errno on failure. Most handlers are under ten lines —
    the property that keeps the TCB thin. *)

open Wasm
open Kernel

let ( let* ) = Result.bind

(* ---- result encoding ---- *)

let errno_ret (e : Errno.t) = Int64.of_int (-Errno.to_code e)
let enc_unit = function Ok () -> 0L | Error e -> errno_ret e
let enc_int = function Ok n -> Int64.of_int n | Error e -> errno_ret e
let enc_i64 = function Ok n -> n | Error e -> errno_ret e

(* ------------------------------------------------------------------ *)
(* fork / exec / thread machinery                                       *)
(* ------------------------------------------------------------------ *)

let do_fork eng (p : Engine.proc) (child_m : Rt.machine) : int64 =
  let child_task =
    Task.clone_task eng.Engine.kernel p.Engine.pr_task ~thread:false
      ~share_files:false
  in
  let old = p.Engine.pr_shared in
  let shared =
    {
      old with
      Engine.ps_mmap = Mmap_mgr.clone old.Engine.ps_mmap;
      ps_argv = Array.copy old.Engine.ps_argv;
      ps_env = Array.copy old.Engine.ps_env;
      ps_mem_id = Engine.fresh_mem_id eng;
    }
  in
  child_m.Rt.m_pid <- child_task.Task.tid;
  let cp =
    {
      Engine.pr_task = child_task;
      pr_sys = Syscalls.make_ctx eng.Engine.kernel child_task eng.Engine.futexes;
      pr_shared = shared;
      pr_machine = Some child_m;
      pr_result = None;
    }
  in
  Engine.register_proc eng cp;
  (* Instruction accounting: the child machine clones the parent's step
     counter, so retire only what it executes from here on. (The cloned
     prof_hook likewise re-baselines on the child's first sample.) *)
  (match eng.Engine.observe with
  | Some o ->
      Observe.Sink.instr_baseline o ~pid:child_task.Task.tid
        ~steps:child_m.Rt.steps ~fused:child_m.Rt.fused
  | None -> ());
  ignore
    (Fiber.spawn
       (Printf.sprintf "wali-pid%d" child_task.Task.tid)
       (fun () ->
         Engine.run_machine_body eng cp child_m ~fresh_entry:false ~entry:None
           ~args:[]));
  Int64.of_int child_task.Task.tgid

(* Read a NULL-terminated array of guest string pointers. *)
let read_str_array mem addr : string list =
  if addr = 0 then []
  else begin
    let rec go i acc =
      if i > 4096 then raise Abi.Efault
      else begin
        let p = Abi.u32i mem (addr + (4 * i)) in
        if p = 0 then List.rev acc else go (i + 1) (Abi.cstring mem p :: acc)
      end
    in
    go 0 []
  end

(* Forward declaration knot: execve needs the resolver, the resolver
   needs dispatch, dispatch needs execve. *)
let resolver_ref :
    (Engine.t -> module_name:string -> name:string -> Rt.extern option) ref =
  ref (fun _ ~module_name:_ ~name:_ -> None)

let do_execve eng (p : Engine.proc) mem ~path_ptr ~argv_ptr ~envp_ptr :
    Rt.host_outcome =
  let path = Abi.cstring mem path_ptr in
  let argv = read_str_array mem argv_ptr in
  let envp = read_str_array mem envp_ptr in
  match Syscalls.execve_load p.Engine.pr_sys ~path with
  | Error e -> Rt.H_return [ Values.I64 (errno_ret e) ]
  | Ok binary -> (
      match
        Engine.build_image eng
          ~resolver:(fun ~module_name ~name ->
            !resolver_ref eng ~module_name ~name)
          ~binary ~name:(Filename.basename path)
      with
      | exception _ -> Rt.H_return [ Values.I64 (errno_ret Errno.ENOEXEC) ]
      | inst ->
          Rt.H_exec
            (fun () ->
              let task = p.Engine.pr_task in
              (* the new image starts from a fresh step counter *)
              Option.iter (Engine.retire_machine eng) p.Engine.pr_machine;
              (* POSIX: caught signals reset to default across exec. *)
              let actions = task.Task.group.Task.actions in
              Array.iteri
                (fun i a ->
                  if a.Ktypes.sa_handler <> Ktypes.sig_ign
                     && a.Ktypes.sa_handler <> Ktypes.sig_dfl then
                    actions.(i) <- Ktypes.sigaction_default)
                actions;
              (* The virtual environment travels to the new image with the
                 process (the paper's per-pid shared-segment technique,
                 realized directly in the engine). *)
              p.Engine.pr_shared <-
                Engine.make_pshared eng ~inst ~argv ~env:envp ~binary;
              let m' = Engine.new_machine eng inst ~tid:task.Task.tid in
              (match Rt.exported_func inst "_start" with
              | Rt.Wasm_func { wf_inst; wf_code } ->
                  Rt.Machine.push_frame m' wf_inst wf_code
              | Rt.Host_func _ -> Values.trap "_start is a host function"
              | exception Values.Trap _ -> Values.trap "%s: no _start" path);
              p.Engine.pr_machine <- Some m';
              m'))

let do_thread_spawn eng (p : Engine.proc) (m : Rt.machine) ~entry_idx ~arg :
    int64 =
  match Engine.handler_func m.Rt.m_inst entry_idx with
  | None -> errno_ret Errno.EINVAL
  | Some f ->
      let child_task =
        Task.clone_task eng.Engine.kernel p.Engine.pr_task ~thread:true
          ~share_files:true
      in
      (* Instance-per-thread: per-thread execution state lives in the new
         machine; the process image (memory, tables, code) is shared. *)
      let tm = Engine.new_machine eng m.Rt.m_inst ~tid:child_task.Task.tid in
      let cp =
        {
          Engine.pr_task = child_task;
          pr_sys =
            Syscalls.make_ctx eng.Engine.kernel child_task eng.Engine.futexes;
          pr_shared = p.Engine.pr_shared;
          pr_machine = Some tm;
          pr_result = None;
        }
      in
      Engine.register_proc eng cp;
      ignore
        (Fiber.spawn
           (Printf.sprintf "wali-tid%d" child_task.Task.tid)
           (fun () ->
             Engine.run_machine_body eng cp tm ~fresh_entry:true
               ~entry:(Some f)
               ~args:[ Values.I32 (Int32.of_int arg) ]));
      Int64.of_int child_task.Task.tid

(* ------------------------------------------------------------------ *)
(* The syscall dispatcher                                               *)
(* ------------------------------------------------------------------ *)

(* /proc/self/mem interposition (paper §3.6: Filesystem Sandboxing). *)
let forbidden_path path =
  path = "/proc/self/mem"
  || (String.length path >= 6 && String.sub path 0 6 = "/proc/"
     && Filename.basename path = "mem")

exception Sys_ret of int64

let dispatch_raw eng (p : Engine.proc) (name : string) (m : Rt.machine)
    (args : Values.value array) : (Rt.host_outcome, Errno.t) result =
  let ctx = p.Engine.pr_sys in
  let mem = Rt.memory0 m in
  let sh = p.Engine.pr_shared in
  let a64 i = Values.as_i64 args.(i) in
  let ai i = Int64.to_int (a64 i) in
  (* guest pointers are u32s carried in i64s *)
  let ap i = Int64.to_int (Int64.logand (a64 i) 0xFFFFFFFFL) in
  let buf i len = Abi.buffer mem ~addr:(ap i) ~len in
  let str i = Abi.cstring mem (ap i) in
  let ret v = raise (Sys_ret v) in
  let retu r = ret (enc_unit r) in
  let reti r = ret (enc_int r) in
  let err e = ret (errno_ret e) in
  let check_path path = if forbidden_path path then err Errno.EACCES in
  (* fd-relative base: WALI forwards dirfd (incl. AT_FDCWD = -100). *)
  let go () : (Rt.host_outcome, Errno.t) result =
    match name with
    (* ---- plain I/O: zero-copy address-space translation ---- *)
    | "read" ->
        let b, off = buf 1 (ai 2) in
        reti (Syscalls.read ctx ~fd:(ai 0) ~buf:b ~off ~len:(ai 2))
    | "write" ->
        let b, off = buf 1 (ai 2) in
        reti (Syscalls.write ctx ~fd:(ai 0) ~buf:b ~off ~len:(ai 2))
    | "pread64" ->
        let b, off = buf 1 (ai 2) in
        reti (Syscalls.pread64 ctx ~fd:(ai 0) ~buf:b ~off ~len:(ai 2) ~pos:(ai 3))
    | "pwrite64" ->
        let b, off = buf 1 (ai 2) in
        reti (Syscalls.pwrite64 ctx ~fd:(ai 0) ~buf:b ~off ~len:(ai 2) ~pos:(ai 3))
    | "readv" ->
        let iovs = Abi.read_iovecs mem ~iov:(ap 1) ~cnt:(ai 2) in
        let total = ref 0 in
        let rec go = function
          | [] -> reti (Ok !total)
          | (base, len) :: rest -> (
              let b, off = Abi.buffer mem ~addr:base ~len in
              match Syscalls.read ctx ~fd:(ai 0) ~buf:b ~off ~len with
              | Ok 0 -> reti (Ok !total)
              | Ok n ->
                  total := !total + n;
                  if n < len then reti (Ok !total) else go rest
              | Error e -> if !total > 0 then reti (Ok !total) else err e)
        in
        go iovs
    | "writev" ->
        let iovs = Abi.read_iovecs mem ~iov:(ap 1) ~cnt:(ai 2) in
        let total = ref 0 in
        let rec go = function
          | [] -> reti (Ok !total)
          | (base, len) :: rest -> (
              let b, off = Abi.buffer mem ~addr:base ~len in
              match Syscalls.write ctx ~fd:(ai 0) ~buf:b ~off ~len with
              | Ok n ->
                  total := !total + n;
                  if n < len then reti (Ok !total) else go rest
              | Error e -> if !total > 0 then reti (Ok !total) else err e)
        in
        go iovs
    | "open" ->
        let path = str 0 in
        check_path path;
        reti
          (Syscalls.openat ctx ~dirfd:Syscalls.at_fdcwd ~path ~flags:(ai 1)
             ~mode:(ai 2))
    | "openat" ->
        let path = str 1 in
        check_path path;
        reti (Syscalls.openat ctx ~dirfd:(ai 0) ~path ~flags:(ai 2) ~mode:(ai 3))
    | "close" -> retu (Syscalls.close ctx ~fd:(ai 0))
    | "lseek" -> reti (Syscalls.lseek ctx ~fd:(ai 0) ~offset:(ai 1) ~whence:(ai 2))
    | "ftruncate" -> retu (Syscalls.ftruncate ctx ~fd:(ai 0) ~len:(ai 1))
    | "truncate" ->
        let path = str 0 in
        (match Vfs.resolve eng.Engine.kernel.Task.fs ~cwd:ctx.Syscalls.t.Task.cwd path with
        | Ok { Vfs.kind = Vfs.Reg b; _ } ->
            Bytebuf.truncate b (ai 1);
            ret 0L
        | Ok _ -> err Errno.EINVAL
        | Error e -> err e)
    | "fsync" | "fdatasync" -> retu (Syscalls.fsync ctx ~fd:(ai 0))
    | "sync" -> ret 0L
    (* ---- stat family: explicit layout conversion (§3.5) ---- *)
    | "stat" | "lstat" ->
        let follow = name = "stat" in
        let* st = Syscalls.stat_path ctx ~dirfd:Syscalls.at_fdcwd ~path:(str 0) ~follow in
        Abi.write_kstat mem (ap 1) st;
        ret 0L
    | "newfstatat" ->
        (* flags bit 0x100 = AT_SYMLINK_NOFOLLOW *)
        let follow = ai 3 land 0x100 = 0 in
        let* st = Syscalls.stat_path ctx ~dirfd:(ai 0) ~path:(str 1) ~follow in
        Abi.write_kstat mem (ap 2) st;
        ret 0L
    | "fstat" ->
        let* st = Syscalls.fstat ctx ~fd:(ai 0) in
        Abi.write_kstat mem (ap 1) st;
        ret 0L
    | "statfs" | "fstatfs" ->
        (* synthetic tmpfs-shaped statfs: type, bsize, blocks, bfree *)
        let a = ap 1 in
        Abi.set_i64 mem a 0x01021994L;
        Abi.set_i64 mem (a + 8) 4096L;
        Abi.set_i64 mem (a + 16) 1048576L;
        Abi.set_i64 mem (a + 24) 524288L;
        ret 0L
    | "access" | "faccessat" ->
        let dirfd, pi, mi = if name = "access" then (Syscalls.at_fdcwd, 0, 1) else (ai 0, 1, 2) in
        retu (Syscalls.faccessat ctx ~dirfd ~path:(Abi.cstring mem (ap pi)) ~amode:(ai mi))
    (* ---- directories ---- *)
    | "mkdir" -> retu (Syscalls.mkdirat ctx ~dirfd:Syscalls.at_fdcwd ~path:(str 0) ~mode:(ai 1))
    | "mkdirat" -> retu (Syscalls.mkdirat ctx ~dirfd:(ai 0) ~path:(str 1) ~mode:(ai 2))
    | "rmdir" ->
        retu (Syscalls.unlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:(str 0) ~rmdir_flag:true)
    | "unlink" ->
        retu (Syscalls.unlinkat ctx ~dirfd:Syscalls.at_fdcwd ~path:(str 0) ~rmdir_flag:false)
    | "unlinkat" ->
        (* AT_REMOVEDIR = 0x200 *)
        retu (Syscalls.unlinkat ctx ~dirfd:(ai 0) ~path:(str 1) ~rmdir_flag:(ai 2 land 0x200 <> 0))
    | "link" ->
        retu
          (Syscalls.linkat ctx ~olddirfd:Syscalls.at_fdcwd ~oldpath:(str 0)
             ~newdirfd:Syscalls.at_fdcwd ~newpath:(str 1))
    | "linkat" ->
        retu
          (Syscalls.linkat ctx ~olddirfd:(ai 0) ~oldpath:(str 1) ~newdirfd:(ai 2)
             ~newpath:(str 3))
    | "symlink" ->
        retu (Syscalls.symlinkat ctx ~target:(str 0) ~dirfd:Syscalls.at_fdcwd ~path:(str 1))
    | "symlinkat" ->
        retu (Syscalls.symlinkat ctx ~target:(str 0) ~dirfd:(ai 1) ~path:(str 2))
    | "readlink" | "readlinkat" ->
        let dirfd, pi, bi, li =
          if name = "readlink" then (Syscalls.at_fdcwd, 0, 1, 2) else (ai 0, 1, 2, 3)
        in
        let* target = Syscalls.readlinkat ctx ~dirfd ~path:(Abi.cstring mem (ap pi)) in
        let n = min (String.length target) (ai li) in
        Abi.write_bytes mem (ap bi) (String.sub target 0 n);
        ret (Int64.of_int n)
    | "rename" ->
        retu
          (Syscalls.renameat ctx ~olddirfd:Syscalls.at_fdcwd ~oldpath:(str 0)
             ~newdirfd:Syscalls.at_fdcwd ~newpath:(str 1))
    | "renameat" | "renameat2" ->
        retu
          (Syscalls.renameat ctx ~olddirfd:(ai 0) ~oldpath:(str 1)
             ~newdirfd:(ai 2) ~newpath:(str 3))
    | "chdir" -> retu (Syscalls.chdir ctx ~path:(str 0))
    | "fchdir" -> retu (Syscalls.fchdir ctx ~fd:(ai 0))
    | "getcwd" ->
        let* cwd = Syscalls.getcwd ctx in
        if String.length cwd + 1 > ai 1 then err Errno.ERANGE
        else begin
          Abi.write_cstring mem (ap 0) cwd;
          ret (Int64.of_int (String.length cwd + 1))
        end
    | "chmod" -> retu (Syscalls.fchmodat ctx ~dirfd:Syscalls.at_fdcwd ~path:(str 0) ~mode:(ai 1))
    | "fchmodat" -> retu (Syscalls.fchmodat ctx ~dirfd:(ai 0) ~path:(str 1) ~mode:(ai 2))
    | "fchmod" -> ret 0L (* metadata-only on an open fd; accepted *)
    | "chown" | "lchown" ->
        retu (Syscalls.fchownat ctx ~dirfd:Syscalls.at_fdcwd ~path:(str 0) ~uid:(ai 1) ~gid:(ai 2))
    | "fchownat" ->
        retu (Syscalls.fchownat ctx ~dirfd:(ai 0) ~path:(str 1) ~uid:(ai 2) ~gid:(ai 3))
    | "fchown" -> ret 0L
    | "getdents64" ->
        let fd = ai 0 and b = ap 1 and len = ai 2 in
        let* entries = Syscalls.getdents ctx ~fd ~max:(max 1 (len / 24)) in
        let written, consumed = Abi.write_dirents mem ~buf:b ~len entries in
        (* push back entries that did not fit *)
        (match Fdtab.get ctx.Syscalls.t.Task.fdtab fd with
        | Some d ->
            d.Fdtab.d_dir_cookie <-
              d.Fdtab.d_dir_cookie - (List.length entries - consumed)
        | None -> ());
        ret (Int64.of_int written)
    | "utimensat" ->
        let now = Task.clock_gettime eng.Engine.kernel Ktypes.clock_realtime in
        let times = ap 2 in
        let at, mt =
          if times = 0 then (now, now)
          else (Abi.read_timespec_ns mem times, Abi.read_timespec_ns mem (times + 16))
        in
        retu (Syscalls.utimensat ctx ~dirfd:(ai 0) ~path:(str 1) ~atime_ns:at ~mtime_ns:mt)
    (* ---- dup / fcntl / ioctl / pipes ---- *)
    | "dup" -> reti (Syscalls.dup ctx ~fd:(ai 0))
    | "dup2" -> reti (Syscalls.dup3 ctx ~fd:(ai 0) ~newfd:(ai 1) ~cloexec:false)
    | "dup3" ->
        reti
          (Syscalls.dup3 ctx ~fd:(ai 0) ~newfd:(ai 1)
             ~cloexec:(ai 2 land Ktypes.o_cloexec <> 0))
    | "fcntl" -> reti (Syscalls.fcntl ctx ~fd:(ai 0) ~cmd:(ai 1) ~arg:(ai 2))
    | "flock" -> ret 0L
    | "ioctl" ->
        let req = ai 1 in
        let* r = Syscalls.ioctl ctx ~fd:(ai 0) ~request:req in
        if req = Ktypes.tiocgwinsz && ap 2 <> 0 then begin
          (* struct winsize { u16 rows, cols, xpix, ypix } *)
          Abi.set_u16 mem (ap 2) 24;
          Abi.set_u16 mem (ap 2 + 2) 80;
          Abi.set_u16 mem (ap 2 + 4) 0;
          Abi.set_u16 mem (ap 2 + 6) 0
        end
        else if req = Ktypes.fionread && ap 2 <> 0 then Abi.set_i32i mem (ap 2) r;
        ret 0L
    | "pipe" | "pipe2" ->
        let flags = if name = "pipe2" then ai 1 else 0 in
        let* r, w = Syscalls.pipe2 ctx ~flags in
        Abi.set_i32i mem (ap 0) r;
        Abi.set_i32i mem (ap 0 + 4) w;
        ret 0L
    (* ---- poll / select ---- *)
    | "poll" | "ppoll" ->
        let fds = Abi.read_pollfds mem ~addr:(ap 0) ~cnt:(ai 1) in
        let timeout_ms =
          if name = "poll" then ai 2
          else if ap 2 = 0 then -1
          else Int64.to_int (Int64.div (Abi.read_timespec_ns mem (ap 2)) 1_000_000L)
        in
        let* n, revents = Syscalls.poll ctx ~fds ~timeout_ms in
        Abi.write_revents mem ~addr:(ap 0) revents;
        ret (Int64.of_int n)
    | "select" | "pselect6" ->
        let nfds = ai 0 in
        let rd = ap 1 and wr = ap 2 in
        let read_set addr =
          if addr = 0 then []
          else
            List.filter
              (fun fd ->
                Abi.u8 mem (addr + (fd / 8)) land (1 lsl (fd mod 8)) <> 0)
              (List.init (max 0 (min nfds 1024)) Fun.id)
        in
        let rfds = read_set rd and wfds = read_set wr in
        let fds =
          List.map (fun fd -> (fd, Ktypes.pollin)) rfds
          @ List.map (fun fd -> (fd, Ktypes.pollout)) wfds
        in
        let timeout_ms =
          if ap 4 = 0 then -1
          else Int64.to_int (Int64.div (Abi.read_timespec_ns mem (ap 4)) 1_000_000L)
        in
        let* _n, revents = Syscalls.poll ctx ~fds ~timeout_ms in
        (* rewrite the bitmaps *)
        let clear addr =
          if addr <> 0 then
            for i = 0 to ((max 0 (min nfds 1024)) + 7) / 8 - 1 do
              Abi.set_u8 mem (addr + i) 0
            done
        in
        clear rd;
        clear wr;
        let ready = ref 0 in
        List.iteri
          (fun i r ->
            if r <> 0 then begin
              incr ready;
              let fd, events = List.nth fds i in
              let addr = if events = Ktypes.pollin then rd else wr in
              if addr <> 0 then
                Abi.set_u8 mem
                  (addr + (fd / 8))
                  (Abi.u8 mem (addr + (fd / 8)) lor (1 lsl (fd mod 8)))
            end)
          revents;
        ret (Int64.of_int !ready)
    (* ---- memory management (§3.2) ---- *)
    | "mmap" ->
        let addr = ap 0 and len = ai 1 and prot = ai 2 and flags = ai 3 in
        let fd = ai 4 and off = ai 5 in
        let file =
          if flags land Ktypes.map_anonymous <> 0 || fd = -1 then Ok None
          else
            match Fdtab.get ctx.Syscalls.t.Task.fdtab fd with
            | Some { Fdtab.d_kind = Fdtab.F_inode { Vfs.kind = Vfs.Reg b; _ }; _ } ->
                Ok (Some (b, off))
            | Some _ -> Error Errno.EACCES
            | None -> Error Errno.EBADF
        in
        let* file = file in
        let* a =
          Mmap_mgr.mmap sh.Engine.ps_mmap ~mem ~addr ~len ~prot ~flags ~file
        in
        Task.charge_vm ctx.Syscalls.t (Mmap_mgr.align_up len);
        ret (Int64.of_int a)
    | "munmap" ->
        let* () = Mmap_mgr.munmap sh.Engine.ps_mmap ~mem ~addr:(ap 0) ~len:(ai 1) in
        Task.charge_vm ctx.Syscalls.t (-Mmap_mgr.align_up (ai 1));
        ret 0L
    | "mremap" ->
        let* a =
          Mmap_mgr.mremap sh.Engine.ps_mmap ~mem ~old_addr:(ap 0)
            ~old_len:(ai 1) ~new_len:(ai 2)
        in
        Task.charge_vm ctx.Syscalls.t (Mmap_mgr.align_up (ai 2) - Mmap_mgr.align_up (ai 1));
        ret (Int64.of_int a)
    | "mprotect" -> retu (Mmap_mgr.mprotect sh.Engine.ps_mmap ~addr:(ap 0) ~len:(ai 1) ~prot:(ai 2))
    | "msync" -> retu (Mmap_mgr.msync sh.Engine.ps_mmap ~mem ~addr:(ap 0) ~len:(ai 1))
    | "madvise" | "mincore" | "fadvise64" | "membarrier" -> ret 0L
    | "brk" ->
        let req = ap 0 in
        if req = 0 then ret (Int64.of_int sh.Engine.ps_brk)
        else begin
          (* grow-only brk within the mmap pool, as a dedicated region *)
          let cur = sh.Engine.ps_brk in
          if req <= cur then ret (Int64.of_int cur)
          else
            match
              Mmap_mgr.mmap sh.Engine.ps_mmap ~mem ~addr:cur
                ~len:(req - cur)
                ~prot:(Ktypes.prot_read lor Ktypes.prot_write)
                ~flags:(Ktypes.map_fixed lor Ktypes.map_anonymous lor Ktypes.map_private)
                ~file:None
            with
            | Ok _ ->
                sh.Engine.ps_brk <- Mmap_mgr.align_up req;
                ret (Int64.of_int sh.Engine.ps_brk)
            | Error _ -> ret (Int64.of_int cur)
        end
    (* ---- signals (§3.3) ---- *)
    | "rt_sigaction" ->
        let signo = ai 0 in
        let act = if ap 1 = 0 then None else Some (Abi.read_sigaction mem (ap 1)) in
        let* old = Syscalls.rt_sigaction ctx ~signo ~action:act in
        if ap 2 <> 0 then Abi.write_sigaction mem (ap 2) old;
        ret 0L
    | "rt_sigprocmask" ->
        let set = if ap 1 = 0 then None else Some (Abi.i64 mem (ap 1)) in
        let* old = Syscalls.rt_sigprocmask ctx ~how:(ai 0) ~set in
        if ap 2 <> 0 then Abi.set_i64 mem (ap 2) old;
        (* §3.3: handle signals unblocked by this call before re-entering
           the Wasm critical section. *)
        if Option.is_some m.Rt.poll_hook then Engine.poll eng p m;
        ret 0L
    | "rt_sigpending" ->
        let* pend = Syscalls.rt_sigpending ctx in
        Abi.set_i64 mem (ap 0) pend;
        ret 0L
    | "rt_sigsuspend" ->
        let nmask = Abi.i64 mem (ap 0) in
        let* old = Syscalls.rt_sigprocmask ctx ~how:Ktypes.sig_setmask ~set:(Some nmask) in
        let r = Syscalls.pause ctx in
        if Option.is_some m.Rt.poll_hook then Engine.poll eng p m;
        let _ = Syscalls.rt_sigprocmask ctx ~how:Ktypes.sig_setmask ~set:(Some old) in
        retu r
    | "rt_sigreturn" ->
        (* §3.6: the signal trampoline is engine-managed; direct calls
           are a known attack gadget and trap. *)
        Values.trap "rt_sigreturn invoked directly from WALI module"
    | "sigaltstack" -> ret 0L
    | "kill" -> retu (Syscalls.kill ctx ~pid:(ai 0) ~signo:(ai 1))
    | "tkill" -> retu (Syscalls.tkill ctx ~tid:(ai 0) ~signo:(ai 1))
    | "tgkill" -> retu (Syscalls.tkill ctx ~tid:(ai 1) ~signo:(ai 2))
    | "pause" -> retu (Syscalls.pause ctx)
    | "alarm" -> reti (Syscalls.alarm ctx ~seconds:(ai 0))
    | "setitimer" ->
        (* ITIMER_REAL via the alarm machinery; interval ignored *)
        let it_value_ns = if ap 1 = 0 then 0L else Abi.read_timespec_ns mem (ap 1 + 16) in
        let secs = Int64.to_int (Int64.div (Int64.add it_value_ns 999_999_999L) 1_000_000_000L) in
        reti (Syscalls.alarm ctx ~seconds:secs)
    | "getitimer" ->
        Abi.write_timespec mem (ap 1) ~ns:0L;
        Abi.write_timespec mem (ap 1 + 16) ~ns:0L;
        ret 0L
    (* ---- processes (§3.1) ---- *)
    | "fork" | "vfork" -> Ok (Rt.H_fork (fun child -> do_fork eng p child))
    | "clone" ->
        let flags = ai 0 in
        if flags land Ktypes.clone_vm <> 0 then
          (* Thread creation goes through the dedicated spawn method the
             libc uses (instance-per-thread); raw CLONE_VM is refused. *)
          err Errno.EINVAL
        else Ok (Rt.H_fork (fun child -> do_fork eng p child))
    | "execve" ->
        Ok (do_execve eng p mem ~path_ptr:(ap 0) ~argv_ptr:(ap 1) ~envp_ptr:(ap 2))
    | "exit" | "exit_group" -> Ok (Rt.H_exit (ai 0))
    | "wait4" | "waitid" ->
        let pid = ai 0 in
        let status_ptr = ap 1 in
        let options = ai 2 in
        let* r = Syscalls.wait4 ctx ~pid ~options in
        (match r with
        | None -> ret 0L
        | Some wr ->
            if status_ptr <> 0 then Abi.set_i32i mem status_ptr wr.Task.wr_status;
            if ap 3 <> 0 then begin
              (* rusage: fill ru_utime (timeval) *)
              Abi.write_timeval mem (ap 3) ~ns:wr.Task.wr_rusage_utime
            end;
            ret (Int64.of_int wr.Task.wr_pid))
    | "getpid" -> ret (Int64.of_int (Syscalls.getpid ctx))
    | "getppid" -> ret (Int64.of_int (Syscalls.getppid ctx))
    | "gettid" -> ret (Int64.of_int (Syscalls.gettid ctx))
    | "getuid" -> ret (Int64.of_int (Syscalls.getuid ctx))
    | "geteuid" -> ret (Int64.of_int (Syscalls.geteuid ctx))
    | "getgid" -> ret (Int64.of_int (Syscalls.getgid ctx))
    | "getegid" -> ret (Int64.of_int (Syscalls.getegid ctx))
    | "setuid" -> retu (Syscalls.setuid ctx ~uid:(ai 0))
    | "setgid" -> retu (Syscalls.setgid ctx ~gid:(ai 0))
    | "getgroups" -> ret 0L
    | "setpgid" -> retu (Syscalls.setpgid ctx ~pid:(ai 0) ~pgid:(ai 1))
    | "getpgid" -> reti (Syscalls.getpgid ctx ~pid:(ai 0))
    | "getpgrp" -> reti (Syscalls.getpgid ctx ~pid:0)
    | "setsid" -> reti (Syscalls.setsid ctx)
    | "getsid" -> ret (Int64.of_int ctx.Syscalls.t.Task.sid)
    | "sched_yield" ->
        Syscalls.sched_yield ctx;
        ret 0L
    | "sched_getaffinity" ->
        if ai 1 >= 8 then begin
          Abi.set_i64 mem (ap 2) 1L;
          ret 8L
        end
        else err Errno.EINVAL
    | "sched_setaffinity" | "prctl" | "set_robust_list" -> ret 0L
    | "set_tid_address" -> ret (Int64.of_int ctx.Syscalls.t.Task.tid)
    | "prlimit64" | "getrlimit" ->
        let res, out = if name = "getrlimit" then (ai 0, ap 1) else (ai 1, ap 3) in
        let* cur, mx = Syscalls.prlimit64 ctx ~resource:res in
        if out <> 0 then begin
          Abi.set_i64 mem out cur;
          Abi.set_i64 mem (out + 8) mx
        end;
        ret 0L
    | "setrlimit" -> ret 0L
    | "getrusage" ->
        let* ut, st, maxrss = Syscalls.getrusage ctx ~who:(ai 0) in
        let a = ap 1 in
        Abi.write_timeval mem a ~ns:ut;
        Abi.write_timeval mem (a + 16) ~ns:st;
        Abi.set_i64 mem (a + 32) (Int64.of_int maxrss);
        ret 0L
    | "times" ->
        let t = ctx.Syscalls.t in
        let a = ap 0 in
        if a <> 0 then begin
          Abi.set_i64 mem a (Int64.div t.Task.utime 10_000_000L);
          Abi.set_i64 mem (a + 8) (Int64.div t.Task.stime 10_000_000L);
          Abi.set_i64 mem (a + 16) 0L;
          Abi.set_i64 mem (a + 24) 0L
        end;
        ret (Int64.div (Fiber.now ()) 10_000_000L)
    | "sysinfo" ->
        let uptime, procs = Syscalls.sysinfo ctx in
        let a = ap 0 in
        Abi.set_i64 mem a (Int64.div uptime 1_000_000_000L);
        Abi.set_i64 mem (a + 8) 8_589_934_592L;
        Abi.set_i64 mem (a + 16) 4_294_967_296L;
        Abi.set_i32i mem (a + 24) procs;
        ret 0L
    | "uname" ->
        let sysname, nodename, release, version, machine, domain =
          Syscalls.uname ctx
        in
        let a = ap 0 in
        List.iteri
          (fun i s -> Abi.write_cstring mem (a + (i * 65)) ~max:65 s)
          [ sysname; nodename; release; version; machine; domain ];
        ret 0L
    | "umask" -> ret (Int64.of_int (Syscalls.umask ctx ~mask:(ai 0)))
    (* ---- time ---- *)
    | "nanosleep" | "clock_nanosleep" ->
        let req = if name = "nanosleep" then ap 0 else ap 2 in
        retu (Syscalls.nanosleep ctx ~ns:(Abi.read_timespec_ns mem req))
    | "clock_gettime" ->
        Abi.write_timespec mem (ap 1) ~ns:(Syscalls.clock_gettime ctx ~clock:(ai 0));
        ret 0L
    | "clock_getres" ->
        if ap 1 <> 0 then Abi.write_timespec mem (ap 1) ~ns:1L;
        ret 0L
    | "gettimeofday" ->
        Abi.write_timeval mem (ap 0)
          ~ns:(Syscalls.clock_gettime ctx ~clock:Ktypes.clock_realtime);
        ret 0L
    | "time" ->
        let secs =
          Int64.div (Syscalls.clock_gettime ctx ~clock:Ktypes.clock_realtime)
            1_000_000_000L
        in
        if ap 0 <> 0 then Abi.set_i64 mem (ap 0) secs;
        ret secs
    (* ---- sockets ---- *)
    | "socket" -> reti (Syscalls.socket ctx ~family:(ai 0) ~stype:(ai 1))
    | "bind" | "connect" -> (
        match Abi.read_sockaddr mem ~addr:(ap 1) ~len:(ai 2) with
        | None -> err Errno.EINVAL
        | Some addr ->
            if name = "bind" then retu (Syscalls.bind ctx ~fd:(ai 0) ~addr)
            else retu (Syscalls.connect ctx ~fd:(ai 0) ~addr))
    | "listen" -> retu (Syscalls.listen ctx ~fd:(ai 0) ~backlog:(ai 1))
    | "accept" | "accept4" ->
        let* fd = Syscalls.accept ctx ~fd:(ai 0) in
        if ap 1 <> 0 && ap 2 <> 0 then begin
          let n = Abi.write_sockaddr mem ~addr:(ap 1) (Socket.A_inet (0x7F000001, 0)) in
          Abi.set_i32i mem (ap 2) n
        end;
        ret (Int64.of_int fd)
    | "sendto" ->
        let b, off = buf 1 (ai 2) in
        reti (Syscalls.write ctx ~fd:(ai 0) ~buf:b ~off ~len:(ai 2))
    | "recvfrom" ->
        let b, off = buf 1 (ai 2) in
        reti (Syscalls.read ctx ~fd:(ai 0) ~buf:b ~off ~len:(ai 2))
    | "shutdown" -> retu (Syscalls.shutdown ctx ~fd:(ai 0) ~how:(ai 1))
    | "socketpair" ->
        let* a, b = Syscalls.socketpair ctx ~family:(ai 0) in
        Abi.set_i32i mem (ap 3) a;
        Abi.set_i32i mem (ap 3 + 4) b;
        ret 0L
    | "setsockopt" ->
        let v = if ap 3 <> 0 && ai 4 >= 4 then Int32.to_int (Abi.i32 mem (ap 3)) else 0 in
        retu (Syscalls.setsockopt ctx ~fd:(ai 0) ~level:(ai 1) ~opt:(ai 2) ~value:v)
    | "getsockopt" ->
        let* v = Syscalls.getsockopt ctx ~fd:(ai 0) ~level:(ai 1) ~opt:(ai 2) in
        if ap 3 <> 0 then Abi.set_i32i mem (ap 3) v;
        if ap 4 <> 0 then Abi.set_i32i mem (ap 4) 4;
        ret 0L
    | "getsockname" | "getpeername" ->
        let n = Abi.write_sockaddr mem ~addr:(ap 1) (Socket.A_inet (0x7F000001, 0)) in
        Abi.set_i32i mem (ap 2) n;
        ret 0L
    | "sendfile" ->
        let infd = ai 1 and outfd = ai 0 and count = ai 3 in
        let tmp = Bytes.create (min count 65536) in
        let total = ref 0 in
        let rec go () =
          let want = min (Bytes.length tmp) (count - !total) in
          if want = 0 then reti (Ok !total)
          else
            match Syscalls.read ctx ~fd:infd ~buf:tmp ~off:0 ~len:want with
            | Ok 0 -> reti (Ok !total)
            | Ok n -> (
                match Syscalls.write ctx ~fd:outfd ~buf:tmp ~off:0 ~len:n with
                | Ok _ ->
                    total := !total + n;
                    go ()
                | Error e -> if !total > 0 then reti (Ok !total) else err e)
            | Error e -> if !total > 0 then reti (Ok !total) else err e
        in
        go ()
    (* ---- futex / misc ---- *)
    | "futex" ->
        let addr = ap 0 in
        let op = ai 1 land lnot Ktypes.futex_private in
        if op = Ktypes.futex_wait then begin
          let timeout_ns =
            if ap 3 = 0 then None else Some (Abi.read_timespec_ns mem (ap 3))
          in
          let load () = Abi.i32 mem addr in
          retu
            (Syscalls.futex_wait ctx ~mem_id:sh.Engine.ps_mem_id ~addr ~load
               ~expected:(Int64.to_int32 (a64 2)) ~timeout_ns)
        end
        else if op = Ktypes.futex_wake then
          ret
            (Int64.of_int
               (Syscalls.futex_wake ctx ~mem_id:sh.Engine.ps_mem_id ~addr ~n:(ai 2)))
        else err Errno.ENOSYS
    | "getrandom" ->
        let b, off = buf 0 (ai 1) in
        reti (Syscalls.getrandom ctx ~buf:b ~off ~len:(ai 1))
    | _ ->
        (* auto-generated passthrough stub (paper §5/§6) *)
        err Errno.ENOSYS
  in
  go ()

(* Collapse the Result plumbing: [Error e] from a let* chain is an errno
   return; Sys_ret carries successful encodings; failed pointer
   translation is -EFAULT, as in the raw kernel ABI. *)
let dispatch_proc eng p name m args : Rt.host_outcome =
  match dispatch_raw eng p name m args with
  | Ok o -> o
  | Error e -> Rt.H_return [ Values.I64 (errno_ret e) ]
  | exception Sys_ret v -> Rt.H_return [ Values.I64 v ]
  | exception Abi.Efault -> Rt.H_return [ Values.I64 (errno_ret Errno.EFAULT) ]
  | exception Rt.Memory.Bounds ->
      Rt.H_return [ Values.I64 (errno_ret Errno.EFAULT) ]

let dispatch eng name m args : Rt.host_outcome =
  dispatch_proc eng (Engine.proc_of eng m) name m args

(* ------------------------------------------------------------------ *)
(* Host function construction / resolver                                *)
(* ------------------------------------------------------------------ *)

(* The one interposer call site: record/replay (and any other tooling)
   sees every crossing here, syscalls and thread_spawn alike. The
   recorder runs [live] and logs its outcome; the replayer substitutes
   the logged outcome for it. *)
let interposed eng p name m args live : Rt.host_outcome =
  match eng.Engine.interpose with
  | Some ip -> ip.Engine.ip_dispatch eng p name m args live
  | None -> live ()

let traced_dispatch eng name (m : Rt.machine) (args : Values.value array) :
    Rt.host_outcome =
  let p = Engine.proc_of eng m in
  let live () =
    match Seccomp.check eng.Engine.policy name with
    | Seccomp.Allow -> dispatch_proc eng p name m args
    | Seccomp.Deny e -> Rt.H_return [ Values.I64 (errno_ret e) ]
    | Seccomp.Kill ->
        raise (Engine.Killed_by (Ktypes.wsignal_status Ktypes.sigsys))
  in
  let pid = p.Engine.pr_task.Task.tgid and tid = p.Engine.pr_task.Task.tid in
  let t0 = Fiber.now () in
  (match eng.Engine.observe with
  | Some o -> Observe.Sink.syscall_begin o ~pid ~tid ~name ~ts:t0
  | None -> ());
  (* One registry update and the span's end, whether the call returns or
     raises (a seccomp kill, a trap): a call that never returns counts
     as a failed one. *)
  let finish result =
    let t1 = Fiber.now () in
    let ns = Int64.sub t1 t0 in
    Strace.note eng.Engine.trace ~pid ~name ~args ~result ~ns;
    match eng.Engine.observe with
    | Some o ->
        Observe.Sink.syscall_end o ~pid ~tid ~name ~ts:t1 ~ns ~result
          ~stack:(fun () -> Engine.machine_stack m)
    | None -> ()
  in
  match interposed eng p name m args live with
  | exception e ->
      finish (errno_ret Errno.EPERM);
      raise e
  | outcome ->
      finish
        (match outcome with Rt.H_return [ Values.I64 r ] -> r | _ -> 0L);
      (* Linux delivers pending signals on return to userspace from any
         syscall; mirror that by polling before handing the result back
         (complements the compiler-inserted safepoints of §3.3). Polling
         after the span closes keeps the trace well-nested even when a
         delivery terminates the process. *)
      (match outcome with
      | Rt.H_return _ when Option.is_some m.Rt.poll_hook -> Engine.poll eng p m
      | _ -> ());
      outcome

let i64s n = List.init n (fun _ -> Types.T_i64)

let syscall_host_func eng (entry : Spec.entry) : Rt.func_inst =
  Rt.Host_func
    {
      hf_name = Spec.import_name entry.Spec.name;
      hf_type = { Types.params = i64s entry.Spec.arity; results = [ Types.T_i64 ] };
      hf_fn = (fun m args -> traced_dispatch eng entry.Spec.name m args);
    }

(* argv/env support methods (§3.4): ownership of the vectors stays in the
   application sandbox; the engine only answers sizes and copies one
   element at a time. *)
let env_host_func eng (name : string) (arity : int) : Rt.func_inst =
  let fn (m : Rt.machine) (args : Values.value array) : Rt.host_outcome =
    let p = Engine.proc_of eng m in
    let sh = p.Engine.pr_shared in
    let mem = Rt.memory0 m in
    let arg i = Int32.to_int (Values.as_i32 args.(i)) in
    let vec =
      match name with
      | "get_envc" | "get_env_len" | "copy_env" -> sh.Engine.ps_env
      | _ -> sh.Engine.ps_argv
    in
    let r =
      match name with
      | "get_argc" | "get_envc" -> Array.length vec
      | "get_argv_len" | "get_env_len" ->
          let i = arg 0 in
          if i < 0 || i >= Array.length vec then -1
          else String.length vec.(i) + 1
      | "copy_argv" | "copy_env" ->
          let b = arg 0 and i = arg 1 in
          if i < 0 || i >= Array.length vec then -1
          else begin
            (try Abi.write_cstring mem b vec.(i)
             with Abi.Efault -> ());
            String.length vec.(i) + 1
          end
      | _ -> -1
    in
    Rt.H_return [ Values.I32 (Int32.of_int r) ]
  in
  Rt.Host_func
    {
      hf_name = name;
      hf_type =
        { Types.params = List.init arity (fun _ -> Types.T_i32);
          results = [ Types.T_i32 ] };
      hf_fn = fn;
    }

let thread_spawn_host_func eng : Rt.func_inst =
  Rt.Host_func
    {
      hf_name = "thread_spawn";
      hf_type = { Types.params = [ Types.T_i32; Types.T_i32 ]; results = [ Types.T_i32 ] };
      hf_fn =
        (fun m args ->
          let p = Engine.proc_of eng m in
          (* thread_spawn creates engine structure (a fiber and a
             machine), so like fork it must be interposable: replay
             re-executes it live and validates the resulting tid. *)
          interposed eng p "thread_spawn" m args (fun () ->
              let tid =
                do_thread_spawn eng p m
                  ~entry_idx:(Int32.to_int (Values.as_i32 args.(0)))
                  ~arg:(Int32.to_int (Values.as_i32 args.(1)))
              in
              Rt.H_return [ Values.I32 (Int64.to_int32 tid) ]));
    }

(** The engine's import resolver for the ["wali"] namespace. *)
let resolver (eng : Engine.t) : Link.resolver =
 fun ~module_name ~name ->
  if module_name <> Spec.import_module then None
  else if name = "thread_spawn" then Some (Rt.E_func (thread_spawn_host_func eng))
  else
    match List.assoc_opt name (List.map (fun (n, a) -> (n, a)) Spec.env_methods) with
    | Some arity -> Some (Rt.E_func (env_host_func eng name arity))
    | None ->
        if String.length name > 4 && String.sub name 0 4 = "SYS_" then begin
          let sys = String.sub name 4 (String.length name - 4) in
          match Spec.find sys with
          | Some entry -> Some (Rt.E_func (syscall_host_func eng entry))
          | None -> None
        end
        else None

let () = resolver_ref := fun eng ~module_name ~name -> resolver eng ~module_name ~name

(* ------------------------------------------------------------------ *)
(* Program spawning                                                     *)
(* ------------------------------------------------------------------ *)

(** Launch a Wasm binary as the initial WALI process (with stdio on the
    console). Returns the process; its result is available once the
    scheduler drains. *)
let spawn_init (eng : Engine.t) ~(binary : string) ~(argv : string list)
    ~(env : string list) : Engine.proc =
  let name = match argv with a :: _ -> Filename.basename a | [] -> "wali-app" in
  let inst = Engine.build_image eng ~resolver:(resolver eng) ~binary ~name in
  let task = Task.make_init eng.Engine.kernel ~comm:name in
  Engine.setup_stdio eng task;
  let m = Engine.new_machine eng inst ~tid:task.Task.tid in
  let p =
    {
      Engine.pr_task = task;
      pr_sys = Syscalls.make_ctx eng.Engine.kernel task eng.Engine.futexes;
      pr_shared = Engine.make_pshared eng ~inst ~argv ~env ~binary;
      pr_machine = Some m;
      pr_result = None;
    }
  in
  Engine.register_proc eng p;
  let entry = Rt.exported_func inst "_start" in
  ignore
    (Fiber.spawn name (fun () ->
         Engine.run_machine_body eng p m ~fresh_entry:true ~entry:(Some entry)
           ~args:[]));
  p

(** One-call convenience: boot a kernel, install the program at [path] in
    the VFS, run it to completion, return (exit_status, console output,
    result). Used by tests, examples and benches. *)
let run_program ?(kernel : Task.kernel option) ?(poll_scheme = Code.Poll_loops)
    ?(trace : Strace.t option) ?(policy : Seccomp.t option)
    ?(observe : Observe.Sink.t option) ~(binary : string)
    ~(argv : string list) ~(env : string list) () :
    int * string * Interp.run_result option =
  let kernel = match kernel with Some k -> k | None -> Task.boot () in
  let eng = Engine.create ~poll_scheme ?trace ?policy ?observe kernel in
  let status = ref 0 in
  let result = ref None in
  (match observe with Some o -> Observe.Sink.attach o | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match observe with Some o -> Observe.Sink.detach o | None -> ())
    (fun () ->
      Fiber.run (fun () ->
          let p = spawn_init eng ~binary ~argv ~env in
          eng.Engine.on_proc_exit <-
            Some
              (fun q st ->
                if q == p then begin
                  status := st;
                  result := q.Engine.pr_result
                end)));
  (!status, Task.console_output kernel, !result)
