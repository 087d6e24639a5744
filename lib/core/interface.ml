(** The WALI host-function interface: ~150 name-bound virtual syscalls
    plus the argv/env support methods (paper §3, §3.4).

    Each syscall import is bound to its handler when a module is linked.
    The handler reads its i64 arguments straight from the caller's stack
    slots, translates guest pointers into its linear memory (zero-copy
    where the kernel ABI allows), invokes the kernel syscall, and returns
    the raw kernel result: non-negative on success, -errno on failure.
    Most handlers are a few lines — the property that keeps the TCB thin. *)

open Wasm
open Kernel

(* ---- result encoding: an unboxed int, widened only at a boxed edge ---- *)

let errno_ret (e : Errno.t) = -Errno.to_code e
let retu = function Ok () -> 0 | Error e -> errno_ret e
let reti = function Ok n -> n | Error e -> errno_ret e

(* A result as the boxed edge returns it. *)
let ret_i64 r = Rt.H_return [ Values.I64 (Int64.of_int r) ]

(* ------------------------------------------------------------------ *)
(* fork / exec / thread machinery                                       *)
(* ------------------------------------------------------------------ *)

(* Register a process (or thread) running machine [m] on [task], and run
   [m] on a fiber of its own: from [entry], or resumed where it stands. *)
let start eng task shared m ~fiber ~entry ~args : Engine.proc =
  let sys = Syscalls.make_ctx eng.Engine.kernel task eng.Engine.futexes in
  let p =
    { Engine.pr_task = task; pr_sys = sys; pr_shared = shared; pr_machine = Some m;
      pr_result = None }
  in
  Engine.register_proc eng p;
  let fresh_entry = Option.is_some entry in
  ignore (Fiber.spawn fiber (fun () -> Engine.run_machine_body eng p m ~fresh_entry ~entry ~args));
  p

(** A fork child's process state: its parent's mappings, brk and vectors,
    copied, and an address space of its own for futexes. Every backend's
    fork makes it here. *)
let fork_shared eng (old : Engine.pshared) : Engine.pshared =
  {
    old with
    Engine.ps_mmap = Mmap_mgr.clone old.Engine.ps_mmap;
    ps_argv = Array.copy old.Engine.ps_argv;
    ps_env = Array.copy old.Engine.ps_env;
    ps_mem_id = Engine.fresh_mem_id eng;
  }

let do_fork eng (p : Engine.proc) (child_m : Rt.machine) : int64 =
  let child_task =
    Task.clone_task eng.Engine.kernel p.Engine.pr_task ~thread:false
      ~share_files:false
  in
  let shared = fork_shared eng p.Engine.pr_shared in
  child_m.Rt.m_pid <- child_task.Task.tid;
  (* the clone still holds the parent's attention cell *)
  child_m.Rt.m_attn <- child_task.Task.attn;
  Engine.event eng (Engine.Machine_start child_m);
  let fiber = Printf.sprintf "wali-pid%d" child_task.Task.tid in
  ignore (start eng child_task shared child_m ~fiber ~entry:None ~args:[]);
  Int64.of_int child_task.Task.tgid

(* Read a NULL-terminated array of guest string pointers. *)
let read_str_array mem addr : string list =
  let rec go i acc =
    let p = if i > 4096 then raise Abi.Efault else Abi.u32i mem (addr + (4 * i)) in
    if p = 0 then List.rev acc else go (i + 1) (Abi.cstring mem p :: acc)
  in
  if addr = 0 then [] else go 0 []

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
  | Error e -> ret_i64 (errno_ret e)
  | Ok binary -> (
      match
        Engine.build_image eng
          ~resolver:(fun ~module_name ~name ->
            !resolver_ref eng ~module_name ~name)
          ~binary ~name:(Filename.basename path)
      with
      | exception _ -> ret_i64 (errno_ret Errno.ENOEXEC)
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
              let m' = Engine.new_machine eng inst ~task in
              m'.Rt.m_owner <- Engine.Owner p;
              (match Rt.exported_func inst "_start" with
              | Rt.Wasm_func { wf_inst; wf_code } ->
                  Rt.Machine.push_frame m' wf_inst wf_code
              | Rt.Host_func _ | Rt.Host_slot _ -> Values.trap "_start is a host function"
              | exception Values.Trap _ -> Values.trap "%s: no _start" path);
              p.Engine.pr_machine <- Some m';
              m'))

let do_thread_spawn eng (p : Engine.proc) (m : Rt.machine) ~entry_idx ~arg : int =
  match Engine.handler_func m.Rt.m_inst entry_idx with
  | None -> errno_ret Errno.EINVAL
  | Some f ->
      let child_task =
        Task.clone_task eng.Engine.kernel p.Engine.pr_task ~thread:true
          ~share_files:true
      in
      (* Instance-per-thread: per-thread execution state lives in the new
         machine; the process image (memory, tables, code) is shared. *)
      let tm = Engine.new_machine eng m.Rt.m_inst ~task:child_task in
      let fiber = Printf.sprintf "wali-tid%d" child_task.Task.tid in
      ignore
        (start eng child_task p.Engine.pr_shared tm ~fiber ~entry:(Some f)
           ~args:[ Values.I32 (Int32.of_int arg) ]);
      child_task.Task.tid

(* ------------------------------------------------------------------ *)
(* The syscall handlers, bound once per import                          *)
(* ------------------------------------------------------------------ *)

(* /proc/self/mem interposition (paper §3.6: Filesystem Sandboxing). *)
let forbidden_path path =
  path = "/proc/self/mem"
  || (String.length path >= 6 && String.sub path 0 6 = "/proc/"
     && Filename.basename path = "mem")

(** One syscall in flight. Its i64 arguments are the untagged stack slots
    [base, base + arity) of [m]; they stay there, under anything a nested
    signal delivery pushes, until the call returns. *)
type call = { eng : Engine.t; p : Engine.proc; m : Rt.machine; base : int }

let a64 c i = Bytes.get_int64_ne c.m.Rt.stack (8 * (c.base + i))
let ai c i = Int64.to_int (a64 c i)
let ap c i = ai c i land 0xFFFFFFFF (* guest pointers are u32s carried in i64s *)
let ctx c = c.p.Engine.pr_sys
let mem c = Rt.memory0 c.m
let mm c = c.p.Engine.pr_shared.Engine.ps_mmap
let buf c i len = Abi.bytes (mem c) ~addr:(ap c i) ~len
let str c i = Abi.cstring (mem c) (ap c i)
let ( let* ) r f = match r with Ok x -> f x | Error e -> errno_ret e

(* The [*at] twin of a call (openat for open, ...) takes a dirfd first,
   and the plain call means AT_FDCWD: its other arguments sit [k] = 1
   slot later in the twin, 0 in the plain call. *)
let at name twin = if name = twin then 1 else 0
let dirfd c k = if k = 1 then ai c 0 else Syscalls.at_fdcwd

(* A read hands the kernel memory's bytes as they stand when the call
   starts. A blocking one can sleep while another thread grows memory,
   which moves it to new bytes: what the kernel delivers then lands in
   the orphaned buffer [b], so it is copied into the current one (DESIGN,
   "Linear-memory lifetime"). A blocking write needs nothing: the orphan
   holds memory as it stood at the grow, a moment inside the call. *)
let landed (mem : Rt.Memory.t) b off (r : int Errno.result) =
  (match r with
  | Ok n when n > 0 && mem.Rt.Memory.data != b -> Bytes.blit b off mem.Rt.Memory.data off n
  | _ -> ());
  r

(* A partial transfer reports what moved before the error. *)
let partial total e = if total > 0 then total else errno_ret e

(** How an import is served: a [Slot] handler reads its arguments from the
    stack and returns the raw result as an [int]; a [Proc] one needs machine
    surgery only the engine loop can do (fork, exec, exit), so it keeps
    the boxed {!Rt.host_outcome} convention. *)
type bound =
  | Slot of (call -> int)
  | Proc of (Engine.t -> Engine.proc -> Rt.machine -> Values.value array -> Rt.host_outcome)

(** The handler of syscall [name]. The [match] runs when an import is
    linked (or a by-name call is made), never per guest call. *)
let slot_handler (name : string) : call -> int =
  match name with
  (* ---- plain I/O: zero-copy address-space translation ---- *)
  | "read" | "recvfrom" -> fun c ->
      let off = ap c 1 and len = ai c 2 in
      let b = buf c 1 len in
      reti (landed (mem c) b off (Syscalls.read (ctx c) ~fd:(ai c 0) ~buf:b ~off ~len))
  | "write" | "sendto" -> fun c ->
      let off = ap c 1 and len = ai c 2 in
      reti (Syscalls.write (ctx c) ~fd:(ai c 0) ~buf:(buf c 1 len) ~off ~len)
  | "pread64" -> fun c ->
      let off = ap c 1 and len = ai c 2 in
      reti (Syscalls.pread64 (ctx c) ~fd:(ai c 0) ~buf:(buf c 1 len) ~off ~len ~pos:(ai c 3))
  | "pwrite64" -> fun c ->
      let off = ap c 1 and len = ai c 2 in
      reti (Syscalls.pwrite64 (ctx c) ~fd:(ai c 0) ~buf:(buf c 1 len) ~off ~len ~pos:(ai c 3))
  | "readv" | "writev" ->
      let read = name = "readv" in
      fun c ->
        let mem = mem c and fd = ai c 0 in
        let rec go total = function
          | [] -> total
          | (base, len) :: rest -> (
              let b = Abi.bytes mem ~addr:base ~len in
              let r =
                if read then landed mem b base (Syscalls.read (ctx c) ~fd ~buf:b ~off:base ~len)
                else Syscalls.write (ctx c) ~fd ~buf:b ~off:base ~len
              in
              match r with
              | Ok 0 when read -> total
              | Ok n -> if n < len then total + n else go (total + n) rest
              | Error e -> partial total e)
        in
        go 0 (Abi.read_iovecs mem ~iov:(ap c 1) ~cnt:(ai c 2))
  | "open" | "openat" ->
      let k = at name "openat" in
      fun c ->
          let path = str c k in
          if forbidden_path path then errno_ret Errno.EACCES
          else
            reti
              (Syscalls.openat (ctx c) ~dirfd:(dirfd c k) ~path ~flags:(ai c (k + 1))
                 ~mode:(ai c (k + 2)))
  | "close" -> fun c -> retu (Syscalls.close (ctx c) ~fd:(ai c 0))
  | "lseek" -> fun c -> reti (Syscalls.lseek (ctx c) ~fd:(ai c 0) ~offset:(ai c 1) ~whence:(ai c 2))
  | "ftruncate" -> fun c -> retu (Syscalls.ftruncate (ctx c) ~fd:(ai c 0) ~len:(ai c 1))
  | "truncate" -> (fun c ->
      match Vfs.resolve c.eng.Engine.kernel.Task.fs ~cwd:(ctx c).Syscalls.t.Task.cwd (str c 0) with
      | Ok { Vfs.kind = Vfs.Reg b; _ } ->
          Bytebuf.truncate b (ai c 1);
          0
      | Ok _ -> errno_ret Errno.EINVAL
      | Error e -> errno_ret e)
  | "fsync" | "fdatasync" -> fun c -> retu (Syscalls.fsync (ctx c) ~fd:(ai c 0))
  (* ---- stat family: explicit layout conversion (§3.5) ---- *)
  | "stat" | "lstat" | "newfstatat" ->
      let k = at name "newfstatat" and stat = name = "stat" in
      fun c ->
          (* newfstatat's flags bit 0x100 = AT_SYMLINK_NOFOLLOW *)
          let follow = if k = 1 then ai c 3 land 0x100 = 0 else stat in
          let* st = Syscalls.stat_path (ctx c) ~dirfd:(dirfd c k) ~path:(str c k) ~follow in
          Abi.write_kstat (mem c) (ap c (k + 1)) st;
          0
  | "fstat" -> fun c ->
      let* st = Syscalls.fstat (ctx c) ~fd:(ai c 0) in
      Abi.write_kstat (mem c) (ap c 1) st;
      0
  | "statfs" | "fstatfs" -> fun c ->
      (* synthetic tmpfs-shaped statfs: type, bsize, blocks, bfree *)
      List.iteri
        (fun i v -> Abi.set_i64 (mem c) (ap c 1 + (8 * i)) v)
        [ 0x01021994L; 4096L; 1048576L; 524288L ];
      0
  | "access" | "faccessat" ->
      let k = at name "faccessat" in
      fun c ->
        retu (Syscalls.faccessat (ctx c) ~dirfd:(dirfd c k) ~path:(str c k) ~amode:(ai c (k + 1)))
  (* ---- directories ---- *)
  | "mkdir" | "mkdirat" ->
      let k = at name "mkdirat" in
      fun c ->
        retu (Syscalls.mkdirat (ctx c) ~dirfd:(dirfd c k) ~path:(str c k) ~mode:(ai c (k + 1)))
  | "rmdir" | "unlink" | "unlinkat" ->
      let k = at name "unlinkat" and rmdir = name = "rmdir" in
      fun c ->
          (* unlinkat's AT_REMOVEDIR = 0x200 *)
          let rmdir_flag = if k = 1 then ai c 2 land 0x200 <> 0 else rmdir in
          retu (Syscalls.unlinkat (ctx c) ~dirfd:(dirfd c k) ~path:(str c k) ~rmdir_flag)
  | "link" | "linkat" | "rename" | "renameat" | "renameat2" ->
      (* the twins take a dirfd before each path *)
      let k = if List.mem name [ "linkat"; "renameat"; "renameat2" ] then 1 else 0 in
      let op = if List.mem name [ "link"; "linkat" ] then Syscalls.linkat else Syscalls.renameat in
      fun c ->
        let newdirfd = if k = 1 then ai c 2 else Syscalls.at_fdcwd in
        let newpath = str c (1 + (2 * k)) in
        retu (op (ctx c) ~olddirfd:(dirfd c k) ~oldpath:(str c k) ~newdirfd ~newpath)
  | "symlink" | "symlinkat" ->
      let k = at name "symlinkat" in
      fun c ->
        let dirfd = if k = 1 then ai c 1 else Syscalls.at_fdcwd in
        retu (Syscalls.symlinkat (ctx c) ~target:(str c 0) ~dirfd ~path:(str c (k + 1)))
  | "readlink" | "readlinkat" ->
      let k = at name "readlinkat" in
      fun c ->
          let* target = Syscalls.readlinkat (ctx c) ~dirfd:(dirfd c k) ~path:(str c k) in
          let n = min (String.length target) (ai c (k + 2)) in
          Abi.write_bytes (mem c) (ap c (k + 1)) (String.sub target 0 n);
          n
  | "chdir" -> fun c -> retu (Syscalls.chdir (ctx c) ~path:(str c 0))
  | "fchdir" -> fun c -> retu (Syscalls.fchdir (ctx c) ~fd:(ai c 0))
  | "getcwd" -> fun c ->
      let* cwd = Syscalls.getcwd (ctx c) in
      if String.length cwd + 1 > ai c 1 then errno_ret Errno.ERANGE
      else begin
        Abi.write_cstring (mem c) (ap c 0) cwd;
        String.length cwd + 1
      end
  | "chmod" | "fchmodat" ->
      let k = at name "fchmodat" in
      fun c ->
        retu (Syscalls.fchmodat (ctx c) ~dirfd:(dirfd c k) ~path:(str c k) ~mode:(ai c (k + 1)))
  | "chown" | "lchown" | "fchownat" ->
      let k = at name "fchownat" in
      fun c ->
          retu
            (Syscalls.fchownat (ctx c) ~dirfd:(dirfd c k) ~path:(str c k) ~uid:(ai c (k + 1))
               ~gid:(ai c (k + 2)))
  | "getdents64" -> (fun c ->
      let fd = ai c 0 and len = ai c 2 in
      let* entries = Syscalls.getdents (ctx c) ~fd ~max:(max 1 (len / 24)) in
      let written, consumed = Abi.write_dirents (mem c) ~buf:(ap c 1) ~len entries in
      (* push back entries that did not fit *)
      (match Fdtab.get (ctx c).Syscalls.t.Task.fdtab fd with
      | Some d -> d.Fdtab.d_dir_cookie <- d.Fdtab.d_dir_cookie - (List.length entries - consumed)
      | None -> ());
      written)
  | "utimensat" -> fun c ->
      let now = Task.clock_gettime c.eng.Engine.kernel Ktypes.clock_realtime in
      let mem = mem c and times = ap c 2 in
      let at, mt =
        if times = 0 then (now, now)
        else (Abi.read_timespec_ns mem times, Abi.read_timespec_ns mem (times + 16))
      in
      retu (Syscalls.utimensat (ctx c) ~dirfd:(ai c 0) ~path:(str c 1) ~atime_ns:at ~mtime_ns:mt)
  (* ---- dup / fcntl / ioctl / pipes ---- *)
  | "dup" -> fun c -> reti (Syscalls.dup (ctx c) ~fd:(ai c 0))
  | "dup2" | "dup3" ->
      let dup3 = name = "dup3" in
      fun c ->
        let cloexec = dup3 && ai c 2 land Ktypes.o_cloexec <> 0 in
        reti (Syscalls.dup3 (ctx c) ~fd:(ai c 0) ~newfd:(ai c 1) ~cloexec)
  | "fcntl" -> fun c -> reti (Syscalls.fcntl (ctx c) ~fd:(ai c 0) ~cmd:(ai c 1) ~arg:(ai c 2))
  | "ioctl" -> fun c ->
      let req = ai c 1 and mem = mem c and a = ap c 2 in
      let* r = Syscalls.ioctl (ctx c) ~fd:(ai c 0) ~request:req in
      (* struct winsize { u16 rows, cols, xpix, ypix } *)
      if req = Ktypes.tiocgwinsz && a <> 0 then
        List.iteri (fun i v -> Abi.set_u16 mem (a + (2 * i)) v) [ 24; 80; 0; 0 ]
      else if req = Ktypes.fionread && a <> 0 then Abi.set_i32i mem a r;
      0
  | "pipe" | "pipe2" ->
      let pipe2 = name = "pipe2" in
      fun c ->
        let* r, w = Syscalls.pipe2 (ctx c) ~flags:(if pipe2 then ai c 1 else 0) in
        Abi.set_i32i (mem c) (ap c 0) r;
        Abi.set_i32i (mem c) (ap c 0 + 4) w;
        0
  (* ---- poll / select ---- *)
  | "poll" | "ppoll" ->
      let ppoll = name = "ppoll" in
      fun c ->
        let mem = mem c in
        let fds = Abi.read_pollfds mem ~addr:(ap c 0) ~cnt:(ai c 1) in
        let timeout_ms =
          if not ppoll then ai c 2
          else if ap c 2 = 0 then -1
          else Int64.to_int (Int64.div (Abi.read_timespec_ns mem (ap c 2)) 1_000_000L)
        in
        let* n, revents = Syscalls.poll (ctx c) ~fds ~timeout_ms in
        Abi.write_revents mem ~addr:(ap c 0) revents;
        n
  | "select" | "pselect6" -> (fun c ->
      let mem = mem c and n = max 0 (min (ai c 0) 1024) in
      let byte a fd = a + (fd / 8) and bit fd = 1 lsl (fd mod 8) in
      (* (fd, events, bitmap) for each fd set in the read and write bitmaps *)
      let watched (a, ev) =
        if a = 0 then []
        else
          List.filter (fun fd -> Abi.u8 mem (byte a fd) land bit fd <> 0) (List.init n Fun.id)
          |> List.map (fun fd -> (fd, ev, a))
      in
      let fds = List.concat_map watched [ (ap c 1, Ktypes.pollin); (ap c 2, Ktypes.pollout) ] in
      let timeout_ms =
        if ap c 4 = 0 then -1
        else Int64.to_int (Int64.div (Abi.read_timespec_ns mem (ap c 4)) 1_000_000L)
      in
      let polled = List.map (fun (fd, ev, _) -> (fd, ev)) fds in
      let* _, revents = Syscalls.poll (ctx c) ~fds:polled ~timeout_ms in
      (* rewrite the bitmaps: only the ready fds stay set *)
      List.iter
        (fun a -> if a <> 0 then for i = 0 to ((n + 7) / 8) - 1 do Abi.set_u8 mem (a + i) 0 done)
        [ ap c 1; ap c 2 ];
      let ready = List.filter (fun (_, r) -> r <> 0) (List.combine fds revents) in
      List.iter
        (fun ((fd, _, a), _) -> Abi.set_u8 mem (byte a fd) (Abi.u8 mem (byte a fd) lor bit fd))
        ready;
      List.length ready)
  (* ---- memory management (§3.2) ---- *)
  | "mmap" -> (fun c ->
      let addr = ap c 0 and len = ai c 1 and prot = ai c 2 and flags = ai c 3 in
      let fd = ai c 4 and off = ai c 5 in
      let file =
        if flags land Ktypes.map_anonymous <> 0 || fd = -1 then Ok None
        else
          match Fdtab.get (ctx c).Syscalls.t.Task.fdtab fd with
          | Some { Fdtab.d_kind = Fdtab.F_inode { Vfs.kind = Vfs.Reg b; _ }; _ } ->
              Ok (Some (b, off))
          | Some _ -> Error Errno.EACCES
          | None -> Error Errno.EBADF
      in
      let* file = file in
      let* a = Mmap_mgr.mmap (mm c) ~mem:(mem c) ~addr ~len ~prot ~flags ~file in
      Task.charge_vm (ctx c).Syscalls.t (Mmap_mgr.align_up len);
      a)
  | "munmap" -> fun c ->
      let* () = Mmap_mgr.munmap (mm c) ~mem:(mem c) ~addr:(ap c 0) ~len:(ai c 1) in
      Task.charge_vm (ctx c).Syscalls.t (-Mmap_mgr.align_up (ai c 1));
      0
  | "mremap" -> fun c ->
      let* a =
        Mmap_mgr.mremap (mm c) ~mem:(mem c) ~old_addr:(ap c 0) ~old_len:(ai c 1) ~new_len:(ai c 2)
      in
      Task.charge_vm (ctx c).Syscalls.t (Mmap_mgr.align_up (ai c 2) - Mmap_mgr.align_up (ai c 1));
      a
  | "mprotect" ->
      fun c -> retu (Mmap_mgr.mprotect (mm c) ~addr:(ap c 0) ~len:(ai c 1) ~prot:(ai c 2))
  | "msync" -> fun c -> retu (Mmap_mgr.msync (mm c) ~mem:(mem c) ~addr:(ap c 0) ~len:(ai c 1))
  | "brk" -> (fun c ->
      let sh = c.p.Engine.pr_shared and req = ap c 0 in
      let cur = sh.Engine.ps_brk in
      (* a break that would cover a mapping stays where it is, as on Linux *)
      if req <= cur || Mmap_mgr.overlaps sh.Engine.ps_mmap ~addr:cur ~len:(req - cur) then cur
      else
        (* grow-only brk within the mmap pool, as a dedicated region *)
        match
          Mmap_mgr.mmap sh.Engine.ps_mmap ~mem:(mem c) ~addr:cur ~len:(req - cur)
            ~prot:(Ktypes.prot_read lor Ktypes.prot_write)
            ~flags:(Ktypes.map_fixed lor Ktypes.map_anonymous lor Ktypes.map_private)
            ~file:None
        with
        | Ok _ ->
            sh.Engine.ps_brk <- Mmap_mgr.align_up req;
            sh.Engine.ps_brk
        | Error _ -> cur)
  (* ---- signals (§3.3) ---- *)
  | "rt_sigaction" -> fun c ->
      let act = if ap c 1 = 0 then None else Some (Abi.read_sigaction (mem c) (ap c 1)) in
      let* old = Syscalls.rt_sigaction (ctx c) ~signo:(ai c 0) ~action:act in
      if ap c 2 <> 0 then Abi.write_sigaction (mem c) (ap c 2) old;
      0
  | "rt_sigprocmask" -> fun c ->
      let set = if ap c 1 = 0 then None else Some (Abi.i64 (mem c) (ap c 1)) in
      let* old = Syscalls.rt_sigprocmask (ctx c) ~how:(ai c 0) ~set in
      if ap c 2 <> 0 then Abi.set_i64 (mem c) (ap c 2) old;
      (* §3.3: handle signals unblocked by this call before re-entering
         the Wasm critical section. *)
      Engine.safepoint c.eng c.p c.m;
      0
  | "rt_sigpending" -> fun c ->
      let* pend = Syscalls.rt_sigpending (ctx c) in
      Abi.set_i64 (mem c) (ap c 0) pend;
      0
  | "rt_sigsuspend" -> fun c ->
      let nmask = Abi.i64 (mem c) (ap c 0) in
      let* old = Syscalls.rt_sigprocmask (ctx c) ~how:Ktypes.sig_setmask ~set:(Some nmask) in
      let r = Syscalls.pause (ctx c) in
      Engine.safepoint c.eng c.p c.m;
      let _ = Syscalls.rt_sigprocmask (ctx c) ~how:Ktypes.sig_setmask ~set:(Some old) in
      retu r
  | "rt_sigreturn" ->
      (* §3.6: the signal trampoline is engine-managed; direct calls
         are a known attack gadget and trap. *)
      fun _ -> Values.trap "rt_sigreturn invoked directly from WALI module"
  | "kill" -> fun c -> retu (Syscalls.kill (ctx c) ~pid:(ai c 0) ~signo:(ai c 1))
  | "tkill" -> fun c -> retu (Syscalls.tkill (ctx c) ~tid:(ai c 0) ~signo:(ai c 1))
  | "tgkill" -> fun c -> retu (Syscalls.tkill (ctx c) ~tgid:(ai c 0) ~tid:(ai c 1) ~signo:(ai c 2))
  | "pause" -> fun c -> retu (Syscalls.pause (ctx c))
  | "alarm" -> fun c -> reti (Syscalls.alarm (ctx c) ~seconds:(ai c 0))
  | "setitimer" -> fun c ->
      (* ITIMER_REAL via the alarm machinery; interval ignored *)
      let it_value_ns = if ap c 1 = 0 then 0L else Abi.read_timespec_ns (mem c) (ap c 1 + 16) in
      let secs = Int64.to_int (Int64.div (Int64.add it_value_ns 999_999_999L) 1_000_000_000L) in
      reti (Syscalls.alarm (ctx c) ~seconds:secs)
  | "getitimer" -> fun c ->
      List.iter (fun o -> Abi.write_timespec (mem c) (ap c 1 + o) ~ns:0L) [ 0; 16 ];
      0
  (* ---- processes (§3.1) ---- *)
  | "wait4" | "waitid" -> (fun c ->
      let* r = Syscalls.wait4 (ctx c) ~pid:(ai c 0) ~options:(ai c 2) in
      match r with
      | None -> 0
      | Some wr ->
          if ap c 1 <> 0 then Abi.set_i32i (mem c) (ap c 1) wr.Task.wr_status;
          (* rusage: ru_utime (timeval) is zero, no CPU time is charged *)
          if ap c 3 <> 0 then Abi.write_timeval (mem c) (ap c 3) ~ns:0L;
          wr.Task.wr_pid)
  | "getpid" -> fun c -> Syscalls.getpid (ctx c)
  | "getppid" -> fun c -> Syscalls.getppid (ctx c)
  | "gettid" -> fun c -> Syscalls.gettid (ctx c)
  | "getuid" -> fun c -> Syscalls.getuid (ctx c)
  | "geteuid" -> fun c -> Syscalls.geteuid (ctx c)
  | "getgid" -> fun c -> Syscalls.getgid (ctx c)
  | "getegid" -> fun c -> Syscalls.getegid (ctx c)
  | "setuid" -> fun c -> retu (Syscalls.setuid (ctx c) ~uid:(ai c 0))
  | "setgid" -> fun c -> retu (Syscalls.setgid (ctx c) ~gid:(ai c 0))
  | "setpgid" -> fun c -> retu (Syscalls.setpgid (ctx c) ~pid:(ai c 0) ~pgid:(ai c 1))
  | "getpgid" -> fun c -> reti (Syscalls.getpgid (ctx c) ~pid:(ai c 0))
  | "getpgrp" -> fun c -> reti (Syscalls.getpgid (ctx c) ~pid:0)
  | "setsid" -> fun c -> reti (Syscalls.setsid (ctx c))
  | "getsid" -> fun c -> (ctx c).Syscalls.t.Task.sid
  | "sched_yield" -> fun c -> Syscalls.sched_yield (ctx c); 0
  | "sched_getaffinity" -> fun c ->
      if ai c 1 < 8 then errno_ret Errno.EINVAL else (Abi.set_i64 (mem c) (ap c 2) 1L; 8)
  | "set_tid_address" -> fun c -> (ctx c).Syscalls.t.Task.tid
  | "prlimit64" | "getrlimit" ->
      let getrlimit = name = "getrlimit" in
      fun c ->
        let res, out = if getrlimit then (ai c 0, ap c 1) else (ai c 1, ap c 3) in
        let* cur, mx = Syscalls.prlimit64 (ctx c) ~resource:res in
        if out <> 0 then begin
          Abi.set_i64 (mem c) out cur;
          Abi.set_i64 (mem c) (out + 8) mx
        end;
        0
  | "getrusage" -> fun c ->
      let* maxrss = Syscalls.getrusage (ctx c) ~who:(ai c 0) in
      let mem = mem c and a = ap c 1 in
      Abi.write_timeval mem a ~ns:0L;
      Abi.write_timeval mem (a + 16) ~ns:0L;
      Abi.set_i64 mem (a + 32) (Int64.of_int maxrss);
      0
  | "times" -> fun c ->
      (* struct tms: four zero clock counts, no CPU time is charged *)
      let mem = mem c and a = ap c 0 in
      if a <> 0 then for i = 0 to 3 do Abi.set_i64 mem (a + (8 * i)) 0L done;
      Int64.to_int (Int64.div (Fiber.now ()) 10_000_000L)
  | "sysinfo" -> fun c ->
      let uptime, procs = Syscalls.sysinfo (ctx c) in
      let mem = mem c and a = ap c 0 in
      Abi.set_i64 mem a (Int64.div uptime 1_000_000_000L);
      Abi.set_i64 mem (a + 8) 8_589_934_592L;
      Abi.set_i64 mem (a + 16) 4_294_967_296L;
      Abi.set_i32i mem (a + 24) procs;
      0
  | "uname" -> fun c ->
      let sysname, nodename, release, version, machine, domain = Syscalls.uname (ctx c) in
      List.iteri
        (fun i s -> Abi.write_cstring (mem c) (ap c 0 + (i * 65)) ~max:65 s)
        [ sysname; nodename; release; version; machine; domain ];
      0
  | "umask" -> fun c -> Syscalls.umask (ctx c) ~mask:(ai c 0)
  (* ---- time ---- *)
  | "nanosleep" | "clock_nanosleep" ->
      let req = if name = "nanosleep" then 0 else 2 in
      fun c -> retu (Syscalls.nanosleep (ctx c) ~ns:(Abi.read_timespec_ns (mem c) (ap c req)))
  | "clock_gettime" -> fun c ->
      Abi.write_timespec (mem c) (ap c 1) ~ns:(Syscalls.clock_gettime (ctx c) ~clock:(ai c 0));
      0
  | "clock_getres" -> fun c ->
      if ap c 1 <> 0 then Abi.write_timespec (mem c) (ap c 1) ~ns:1L;
      0
  | "gettimeofday" -> fun c ->
      let ns = Syscalls.clock_gettime (ctx c) ~clock:Ktypes.clock_realtime in
      Abi.write_timeval (mem c) (ap c 0) ~ns;
      0
  | "time" -> fun c ->
      let secs =
        Int64.div (Syscalls.clock_gettime (ctx c) ~clock:Ktypes.clock_realtime) 1_000_000_000L
      in
      if ap c 0 <> 0 then Abi.set_i64 (mem c) (ap c 0) secs;
      Int64.to_int secs
  (* ---- sockets ---- *)
  | "socket" -> fun c -> reti (Syscalls.socket (ctx c) ~family:(ai c 0) ~stype:(ai c 1))
  | "bind" | "connect" ->
      let op = if name = "bind" then Syscalls.bind else Syscalls.connect in
      (fun c ->
        match Abi.read_sockaddr (mem c) ~addr:(ap c 1) ~len:(ai c 2) with
        | None -> errno_ret Errno.EINVAL
        | Some addr -> retu (op (ctx c) ~fd:(ai c 0) ~addr))
  | "listen" -> fun c -> retu (Syscalls.listen (ctx c) ~fd:(ai c 0) ~backlog:(ai c 1))
  | "accept" | "accept4" -> fun c ->
      let* fd = Syscalls.accept (ctx c) ~fd:(ai c 0) in
      if ap c 1 <> 0 && ap c 2 <> 0 then begin
        let n = Abi.write_sockaddr (mem c) ~addr:(ap c 1) (Socket.A_inet (0x7F000001, 0)) in
        Abi.set_i32i (mem c) (ap c 2) n
      end;
      fd
  | "shutdown" -> fun c -> retu (Syscalls.shutdown (ctx c) ~fd:(ai c 0) ~how:(ai c 1))
  | "socketpair" -> fun c ->
      let* a, b = Syscalls.socketpair (ctx c) ~family:(ai c 0) in
      Abi.set_i32i (mem c) (ap c 3) a;
      Abi.set_i32i (mem c) (ap c 3 + 4) b;
      0
  | "setsockopt" -> fun c ->
      let v = if ap c 3 <> 0 && ai c 4 >= 4 then Int32.to_int (Abi.i32 (mem c) (ap c 3)) else 0 in
      retu (Syscalls.setsockopt (ctx c) ~fd:(ai c 0) ~level:(ai c 1) ~opt:(ai c 2) ~value:v)
  | "getsockopt" -> fun c ->
      let* v = Syscalls.getsockopt (ctx c) ~fd:(ai c 0) ~level:(ai c 1) ~opt:(ai c 2) in
      if ap c 3 <> 0 then Abi.set_i32i (mem c) (ap c 3) v;
      if ap c 4 <> 0 then Abi.set_i32i (mem c) (ap c 4) 4;
      0
  | "getsockname" | "getpeername" -> fun c ->
      let n = Abi.write_sockaddr (mem c) ~addr:(ap c 1) (Socket.A_inet (0x7F000001, 0)) in
      Abi.set_i32i (mem c) (ap c 2) n;
      0
  | "sendfile" -> (fun c ->
      let infd = ai c 1 and outfd = ai c 0 and count = ai c 3 in
      if count < 0 then errno_ret Errno.EINVAL else
      let tmp = Bytes.create (min count 65536) in
      let rec go total =
        let want = min (Bytes.length tmp) (count - total) in
        if want = 0 then total
        else
          match Syscalls.read (ctx c) ~fd:infd ~buf:tmp ~off:0 ~len:want with
          | Ok 0 -> total
          | Ok n -> (
              match Syscalls.write (ctx c) ~fd:outfd ~buf:tmp ~off:0 ~len:n with
              | Ok _ -> go (total + n)
              | Error e -> partial total e)
          | Error e -> partial total e
      in
      go 0)
  (* ---- futex / misc ---- *)
  | "futex" -> fun c ->
      let addr = ap c 0 and mem_id = c.p.Engine.pr_shared.Engine.ps_mem_id in
      let op = ai c 1 land lnot Ktypes.futex_private in
      if op = Ktypes.futex_wait then begin
        let mem = mem c in
        let timeout_ns = if ap c 3 = 0 then None else Some (Abi.read_timespec_ns mem (ap c 3)) in
        let load () = Abi.i32 mem addr in
        retu
          (Syscalls.futex_wait (ctx c) ~mem_id ~addr ~load ~expected:(Int64.to_int32 (a64 c 2))
             ~timeout_ns)
      end
      else if op = Ktypes.futex_wake then
        Syscalls.futex_wake (ctx c) ~mem_id ~addr ~n:(ai c 2)
      else errno_ret Errno.ENOSYS
  | "getrandom" -> fun c ->
      let len = ai c 1 in
      reti (Syscalls.getrandom (ctx c) ~buf:(buf c 0 len) ~off:(ap c 0) ~len)
  (* accepted, with no effect *)
  | "sync" | "fchmod" | "fchown" | "flock" | "madvise" | "mincore" | "fadvise64" | "membarrier"
  | "sigaltstack" | "getgroups" | "sched_setaffinity" | "prctl" | "set_robust_list"
  | "setrlimit" ->
      fun _ -> 0
  (* auto-generated passthrough stub (paper §5/§6) *)
  | _ -> fun _ -> errno_ret Errno.ENOSYS


let bind (name : string) : bound =
  match name with
  | "fork" | "vfork" -> Proc (fun eng p _ _ -> Rt.H_fork (fun child -> do_fork eng p child))
  | "clone" -> Proc (fun eng p _ args ->
      (* Thread creation goes through the dedicated spawn method the
         libc uses (instance-per-thread); raw CLONE_VM is refused. *)
      if Int64.to_int (Values.as_i64 args.(0)) land Ktypes.clone_vm <> 0 then
        ret_i64 (errno_ret Errno.EINVAL)
      else Rt.H_fork (fun child -> do_fork eng p child))
  | "execve" -> Proc (fun eng p m args ->
      let ptr i = Int64.to_int (Values.as_i64 args.(i)) land 0xFFFFFFFF in
      do_execve eng p (Rt.memory0 m) ~path_ptr:(ptr 0) ~argv_ptr:(ptr 1) ~envp_ptr:(ptr 2))
  | "exit" | "exit_group" ->
      Proc (fun _ _ _ args -> Rt.H_exit (Int64.to_int (Values.as_i64 args.(0))))
  | _ -> Slot (slot_handler name)

(* ------------------------------------------------------------------ *)
(* The crossing                                                         *)
(* ------------------------------------------------------------------ *)

let fn_type t n = { Types.params = List.init n (fun _ -> t); results = [ t ] }

(** One syscall import's link-time state: its seccomp verdict, resolved
    again only when the policy changes, and its row of the registry
    [s_reg], made on the first call (so an import never called makes no
    row) and again only when the registry changes. *)
type site = {
  s_name : string;
  s_rule : Seccomp.bound;
  mutable s_reg : Observe.Metrics.t;
  mutable s_row : Observe.Metrics.syscall_stats;
}

let no_reg = Observe.Metrics.create ()
let no_row = Observe.Metrics.stats_of no_reg ""
let site eng s_name =
  { s_name; s_rule = Seccomp.bind eng.Engine.policy s_name; s_reg = no_reg; s_row = no_row }

(* [None] runs the call, [Some r] fails it with result [r], a kill raises. *)
let denied eng s =
  match Seccomp.check_bound eng.Engine.policy s.s_rule with
  | Seccomp.Allow -> None
  | Seccomp.Deny e -> Some (errno_ret e)
  | Seccomp.Kill -> raise (Engine.Killed_by (Ktypes.wsignal_status Ktypes.sigsys))

(* The checked calls. Failed pointer translation is -EFAULT, as in the raw
   kernel ABI. *)
let efault_outcome = ret_i64 (errno_ret Errno.EFAULT)

let run_slot s h c =
  match denied c.eng s with
  | None -> ( try h c with Abi.Efault | Rt.Memory.Bounds -> errno_ret Errno.EFAULT)
  | Some r -> r

(* A crossing's one registry update, made whether the call returns or
   raises (a seccomp kill, a trap): a call that never returns counts as a
   failed one. Its result and its ns stay unboxed ints. *)
let note eng s t0 r =
  let ns = Int64.to_int (Int64.sub (Fiber.now ()) t0) and reg = Strace.metrics eng.Engine.trace in
  if s.s_reg != reg then (s.s_row <- Observe.Metrics.stats_of reg s.s_name; s.s_reg <- reg);
  Observe.Metrics.record_stats reg s.s_row ~result:r ~ns

(* The hook's exit of a crossing that began at [t0]: its result [r], or
   [None] when it never returns. *)
let hook_exit eng name p m ~base ~arity t0 r =
  match eng.Engine.hook with
  | Some h -> h.Engine.h_exit p m name ~base ~arity ~ns:(Int64.sub (Fiber.now ()) t0) r
  | None -> ()

let finish eng s (p : Engine.proc) m ~base ~arity t0 (r : int64 option) =
  note eng s t0 (match r with Some r -> Int64.to_int r | None -> Engine.eperm);
  hook_exit eng s.s_name p m ~base ~arity t0 r

let enter eng name p m ~base ~arity =
  match eng.Engine.hook with
  | Some h -> h.Engine.h_enter p m name ~base ~arity
  | None -> None

(* Write boxed arguments to the free slots above [m]'s stack top, where a
   hook reads them; returns their base. *)
let spill m (args : Values.value array) =
  let base = m.Rt.sp and n = Array.length args in
  Rt.Machine.reserve m (base + Int.max 6 n);
  for i = 0 to Int.max 6 n - 1 do
    Bytes.set_int64_ne m.Rt.stack (8 * (base + i)) (if i < n then Values.to_slot args.(i) else 0L)
  done;
  base

(* The perfbench interposer's wrap of a crossing, when one is attached. *)
let interposed eng p name m args live : Rt.host_outcome =
  match eng.Engine.interpose with
  | Some ip -> ip.Engine.ip_dispatch eng p name m args live
  | None -> live ()

(* The boxed crossing: process control, and every call while perfbench's
   interposer is attached. [run] is the handler, checked by seccomp
   first. The engine derives the hook's int64 result here, once: the
   child's pid when the loop registers a fork child, the code of an
   exit, 0 for an execve. *)
let boxed eng s p m ~base args run : Rt.host_outcome =
  let arity = Array.length args and t0 = Fiber.now () in
  let live () =
    match denied eng s with
    | None -> ( try run () with Abi.Efault | Rt.Memory.Bounds -> efault_outcome)
    | Some r -> ret_i64 r
  in
  match
    match enter eng s.s_name p m ~base ~arity with
    | Some r -> Rt.H_return [ Values.I64 r ]
    | None -> interposed eng p s.s_name m args live
  with
  | exception e ->
      finish eng s p m ~base ~arity t0 None;
      raise e
  | Rt.H_fork register ->
      Rt.H_fork
        (fun child ->
          let pid = register child in
          finish eng s p m ~base ~arity t0 (Some pid);
          pid)
  | outcome ->
      finish eng s p m ~base ~arity t0
        (Some (match outcome with
           | Rt.H_return [ Values.I64 r ] -> r
           | Rt.H_exit code -> Int64.of_int code
           | _ -> 0L));
      (match outcome with Rt.H_return _ -> Engine.safepoint eng p m | _ -> ());
      outcome

(* A slot syscall of [arity] arguments, the stack slots of [c]. The plain
   path tests the hook slot and allocates nothing ([c] aside): the result,
   the registry update and the virtual ns stay unboxed ints, and nothing
   reads the machine's step snapshot, so it is not synced. The hooked and
   interposed branches sync it first, since a hook or an interposer may
   read it; a hook reads the arguments in place and sees an int64
   result. *)
let slot_crossing s arity h c : int =
  let eng = c.eng and p = c.p and m = c.m and base = c.base in
  if eng.Engine.interpose != None then begin
    Rt.Machine.sync m;
    let args = Array.init arity (fun i -> Values.I64 (a64 c i)) in
    match boxed eng s p m ~base args (fun () -> ret_i64 (h c)) with
    | Rt.H_return [ Values.I64 r ] -> Int64.to_int r
    | _ -> Values.trap "%s: an interposer changed the result's type" s.s_name
  end
  else
    let t0 = Fiber.now () in
    match eng.Engine.hook with
    | None -> (
        match run_slot s h c with
        | exception e ->
            note eng s t0 Engine.eperm;
            raise e
        | r ->
            note eng s t0 r;
            Engine.safepoint eng p m;
            r)
    | Some hk -> (
        Rt.Machine.sync m;
        match
          match hk.Engine.h_enter p m s.s_name ~base ~arity with
          | Some r -> Int64.to_int r
          | None -> run_slot s h c
        with
        | exception e ->
            finish eng s p m ~base ~arity t0 None;
            raise e
        | r ->
            finish eng s p m ~base ~arity t0 (Some (Int64.of_int r));
            Engine.safepoint eng p m;
            r)

let syscall_host_func eng (e : Spec.entry) : Rt.func_inst =
  let s = site eng e.Spec.name and arity = e.Spec.arity in
  let name = Spec.import_name e.Spec.name and ty = fn_type Types.T_i64 arity in
  match bind e.Spec.name with
  | Slot h ->
      let hs_fn m base = slot_crossing s arity h { eng; p = Engine.proc_of m; m; base } in
      Rt.host_slot ~name ty hs_fn
  | Proc f ->
      let hf_fn m args =
        let p = Engine.proc_of m in
        boxed eng s p m ~base:(spill m args) args (fun () -> f eng p m args)
      in
      Rt.Host_func { hf_name = name; hf_type = ty; hf_fn }

(* Run [f base] with [n] arguments, [arg i] each, pushed as slots of [m]
   from [base] (zero-padded to the largest arity, 6) and popped after. *)
let on_stack m n (arg : int -> int64) f =
  let base = m.Rt.sp in
  Rt.Machine.reserve m (base + Int.max 6 n);
  for i = 0 to Int.max 6 n - 1 do
    Bytes.set_int64_ne m.Rt.stack (8 * (base + i)) (if i < n then arg i else 0L)
  done;
  m.Rt.sp <- base + n;
  match f base with
  | r -> m.Rt.sp <- base; r
  | exception e -> m.Rt.sp <- base; raise e

(* Slot handler [h] for [p] on [m], run from outside the Wasm engine on
   int arguments; a bad pointer gives -EFAULT. *)
let on_slots eng p m h (args : int array) : int =
  on_stack m (Array.length args) (fun i -> Int64.of_int args.(i)) (fun base ->
      try h { eng; p; m; base } with Abi.Efault | Rt.Memory.Bounds -> errno_ret Errno.EFAULT)

(** Syscall [name] bound once for process [p] running [m], for the native
    and RV32 runners: the call returns the raw result of [name]'s slot
    handler on its int arguments. Process control (fork, clone, execve,
    exit) needs the engine loop, so it gives -ENOSYS. No seccomp check, no
    tracing and no signal poll. *)
let bridge eng (p : Engine.proc) (m : Rt.machine) (name : string) : int array -> int =
  match bind name with
  | Slot h -> on_slots eng p m h
  | Proc _ -> fun _ -> errno_ret Errno.ENOSYS

(* The by-name edges (tests, probes) bind each name once, to a site shared
   by every engine (it resolves its verdict and row per engine). *)
let named : (string, bound * site) Hashtbl.t = Hashtbl.create 64

let named_bound eng name =
  match Hashtbl.find_opt named name with
  | Some bs -> bs
  | None ->
      let bs = (bind name, site eng name) in
      Hashtbl.replace named name bs;
      bs

(** Run syscall [name] with no seccomp check and no tracing: a slot call
    crosses as the {!bridge} does, on the arguments unboxed. *)
let dispatch eng name m (args : Values.value array) : Rt.host_outcome =
  let p = Engine.proc_of m in
  match fst (named_bound eng name) with
  | Slot h -> ret_i64 (on_slots eng p m h (Array.map (fun v -> Int64.to_int (Values.to_slot v)) args))
  | Proc f -> ( try f eng p m args with Abi.Efault | Rt.Memory.Bounds -> efault_outcome)

(** Run syscall [name] as a guest call of it runs: seccomp, tracing, the
    hook and the post-call signal poll. *)
let traced_dispatch eng name m (args : Values.value array) : Rt.host_outcome =
  let p = Engine.proc_of m and b, s = named_bound eng name and n = Array.length args in
  on_stack m n (fun i -> Values.to_slot args.(i)) (fun base ->
      match b with
      | Slot h -> ret_i64 (slot_crossing s n h { eng; p; m; base })
      | Proc f -> boxed eng s p m ~base args (fun () -> f eng p m args))

(* ------------------------------------------------------------------ *)
(* The other imports and the resolver                                   *)
(* ------------------------------------------------------------------ *)

(** The argv/env support method [name] (§3.4), for every backend:
    [argv_env name sh mem a0 a1] answers it over the process's vectors
    [sh] and its memory [mem], with the call's first two arguments
    (ignored past its arity). Ownership of the vectors stays in the
    application sandbox; the engine only answers sizes and copies one
    element at a time. A copy to an address outside [mem] writes nothing
    and still returns the element's size. *)
let argv_env (name : string) : Engine.pshared -> Rt.Memory.t -> int -> int -> int =
  let env = List.mem name [ "get_envc"; "get_env_len"; "copy_env" ] in
  let vec sh = if env then sh.Engine.ps_env else sh.Engine.ps_argv in
  (* [k] of element [i], or -1 when there is none *)
  let elt vec i k = if i < 0 || i >= Array.length vec then -1 else k vec.(i) in
  match name with
  | "get_argc" | "get_envc" -> fun sh _ _ _ -> Array.length (vec sh)
  | "get_argv_len" | "get_env_len" ->
      fun sh _ i _ -> elt (vec sh) i (fun s -> String.length s + 1)
  | "copy_argv" | "copy_env" ->
      fun sh mem addr i ->
        elt (vec sh) i (fun s ->
            (try Abi.write_cstring mem addr s with Abi.Efault -> ());
            String.length s + 1)
  | _ -> fun _ _ _ _ -> -1

(* The WALI import of an argv/env method, resolved here, at link time.
   It reads its i32 arguments from the caller's slots (each holds the
   i32 sign-extended, so [Int64.to_int] reads it back); an argument past
   [arity] is 0. *)
let env_host_func (name : string) (arity : int) : Rt.func_inst =
  let fn = argv_env name in
  let arg m base i =
    if i < arity then Int64.to_int (Bytes.get_int64_ne m.Rt.stack (8 * (base + i)))
    else 0
  in
  let hs_fn m base =
    fn (Engine.proc_of m).Engine.pr_shared (Rt.memory0 m) (arg m base 0) (arg m base 1)
  in
  Rt.host_slot ~name (fn_type Types.T_i32 arity) hs_fn

let thread_spawn_host_func eng : Rt.func_inst =
  let hf_fn m args =
    let p = Engine.proc_of m and arg i = Int32.to_int (Values.as_i32 args.(i)) in
    (* thread_spawn creates engine structure (a fiber and a machine), so
       like fork the hook sees it: replay re-executes it live and
       validates the resulting tid. It is not a syscall: no seccomp rule
       and no registry row. *)
    let base = spill m args and t0 = Fiber.now () and name = "thread_spawn" in
    let exit r = hook_exit eng name p m ~base ~arity:2 t0 r in
    match
      ignore (enter eng name p m ~base ~arity:2);
      interposed eng p name m args (fun () ->
          let tid = do_thread_spawn eng p m ~entry_idx:(arg 0) ~arg:(arg 1) in
          Rt.H_return [ Values.I32 (Int32.of_int tid) ])
    with
    | exception e ->
        exit None;
        raise e
    | o ->
        exit (match o with Rt.H_return [ Values.I32 tid ] -> Some (Int64.of_int32 tid) | _ -> None);
        o
  in
  Rt.Host_func { hf_name = "thread_spawn"; hf_type = fn_type Types.T_i32 2; hf_fn }

(** The engine's import resolver for the ["wali"] namespace. *)
let resolver (eng : Engine.t) : Link.resolver =
 fun ~module_name ~name ->
  if module_name <> Spec.import_module then None
  else if name = "thread_spawn" then Some (Rt.E_func (thread_spawn_host_func eng))
  else
    match List.assoc_opt name Spec.env_methods with
    | Some arity -> Some (Rt.E_func (env_host_func name arity))
    | None ->
        if String.length name > 4 && String.sub name 0 4 = "SYS_" then
          Option.map
            (fun e -> Rt.E_func (syscall_host_func eng e))
            (Spec.find (String.sub name 4 (String.length name - 4)))
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
  let m = Engine.new_machine eng inst ~task in
  let shared = Engine.make_pshared eng ~inst ~argv ~env ~binary in
  start eng task shared m ~fiber:name ~entry:(Some (Rt.exported_func inst "_start")) ~args:[]

(** Run [f] while [observe] (when given) also sees the scheduler's
    quanta and idle time. *)
let observing (observe : Observe.Sink.t option) f =
  match observe with
  | None -> f ()
  | Some o ->
      Observe.Sink.attach o;
      Fun.protect ~finally:(fun () -> Observe.Sink.detach o) f

(** Run [binary] to completion as [eng]'s initial process and return
    (exit status, console output, result). When every task blocks with
    nothing left to wake one, [Fiber.Deadlock] names the blocked fibers,
    and the kernel's console keeps what the guest wrote (walirun reports
    both and exits 126). *)
let run_engine (eng : Engine.t) ~(binary : string) ~(argv : string list)
    ~(env : string list) () : int * string * Interp.run_result option =
  let status = ref 0 in
  let result = ref None in
  Fiber.run (fun () ->
      let p = spawn_init eng ~binary ~argv ~env in
      eng.Engine.on_proc_exit <-
        Some
          (fun q st ->
            if q == p then begin
              status := st;
              result := q.Engine.pr_result
            end));
  (!status, Task.console_output eng.Engine.kernel, !result)

(** One-call convenience: boot a kernel (or take [kernel]), run [binary]
    to completion as its initial process on a new engine
    ({!run_engine}), and return (exit status, console output, result).
    [hook] joins the engine's hook after the tracer and the sink: the
    recorder runs this way. Used by tests, examples, benches and the
    record/replay tools. *)
let run_program ?(kernel : Task.kernel option) ?(poll_scheme = Code.Poll_loops)
    ?fuse ?(trace : Strace.t option) ?(policy : Seccomp.t option)
    ?(observe : Observe.Sink.t option) ?hook ~(binary : string)
    ~(argv : string list) ~(env : string list) () :
    int * string * Interp.run_result option =
  let kernel = match kernel with Some k -> k | None -> Task.boot () in
  let eng = Engine.create ~poll_scheme ?fuse ?trace ?policy ?observe ?hook kernel in
  observing observe (run_engine eng ~binary ~argv ~env)
