(** The kernel syscall ABI: typed entry points operating on native OCaml
    values. The WALI layer (and the RV32 ecall bridge, and the MiniC
    native backend) marshal their guests' memory into these calls — this
    module is the boundary that plays the role of Linux's syscall table. *)

open Ktypes

type ctx = { k : Task.kernel; t : Task.t; futexes : Futex.t }

let make_ctx k t futexes = { k; t; futexes }

let count ctx = ctx.k.Task.syscall_count <- Int64.add ctx.k.Task.syscall_count 1L

(* Always-on kernel counters (observability): cheap inline tallies read
   out by the sink at dump time. *)
let kstats ctx = ctx.k.Task.stats
let vfs_op ctx op = Observe.Metrics.vfs_op (kstats ctx) op

(* Track the fd-table high-water mark on every fd-returning path. *)
let noting ctx (r : int Errno.result) : int Errno.result =
  (match r with
  | Ok fd -> Observe.Metrics.note_fd (kstats ctx) fd
  | Error _ -> ());
  r

let tally_pipe ctx (r : int Errno.result) : int Errno.result =
  (match r with
  | Ok n when n > 0 ->
      let s = kstats ctx in
      s.Observe.Metrics.pipe_bytes <-
        Int64.add s.Observe.Metrics.pipe_bytes (Int64.of_int n)
  | _ -> ());
  r

let tally_sock ctx (r : int Errno.result) : int Errno.result =
  (match r with
  | Ok n when n > 0 ->
      let s = kstats ctx in
      s.Observe.Metrics.sock_bytes <-
        Int64.add s.Observe.Metrics.sock_bytes (Int64.of_int n)
  | _ -> ());
  r

let nonblock_of d = d.Fdtab.d_flags land o_nonblock <> 0

(* ------------------------------------------------------------------ *)
(* fd-level read/write dispatch                                         *)
(* ------------------------------------------------------------------ *)

let desc_read ctx (d : Fdtab.desc) buf off len : int Errno.result =
  let intr = ctx.t.Task.intr in
  let nonblock = nonblock_of d in
  match d.Fdtab.d_kind with
  | Fdtab.F_inode i -> (
      match i.Vfs.kind with
      | Vfs.Reg b ->
          let n = Bytebuf.pread b ~off:d.Fdtab.d_pos ~dst:buf ~dst_off:off ~len in
          d.Fdtab.d_pos <- d.Fdtab.d_pos + n;
          Ok n
      | Vfs.Dir _ -> Error Errno.EISDIR
      | Vfs.Fifo p -> tally_pipe ctx (Pipe.read p ~intr ~nonblock buf off len)
      | Vfs.Chardev cd -> cd.Vfs.cd_read ~intr ~nonblock buf off len
      | Vfs.Symlink _ | Vfs.Gen _ -> Error Errno.EINVAL)
  | Fdtab.F_gen s ->
      let avail = String.length s - d.Fdtab.d_pos in
      if avail <= 0 then Ok 0
      else begin
        let n = min len avail in
        Bytes.blit_string s d.Fdtab.d_pos buf off n;
        d.Fdtab.d_pos <- d.Fdtab.d_pos + n;
        Ok n
      end
  | Fdtab.F_pipe_r p -> tally_pipe ctx (Pipe.read p ~intr ~nonblock buf off len)
  | Fdtab.F_pipe_w _ -> Error Errno.EBADF
  | Fdtab.F_fifo (p, has_r, _) ->
      if has_r then tally_pipe ctx (Pipe.read p ~intr ~nonblock buf off len)
      else Error Errno.EBADF
  | Fdtab.F_chardev cd -> cd.Vfs.cd_read ~intr ~nonblock buf off len
  | Fdtab.F_sock s -> tally_sock ctx (Socket.read s ~intr ~nonblock buf off len)

let desc_write ctx (d : Fdtab.desc) buf off len : int Errno.result =
  let intr = ctx.t.Task.intr in
  let nonblock = nonblock_of d in
  let sigpipe_wrap r =
    match r with
    | Error Errno.EPIPE ->
        Task.post_to_thread ctx.k ctx.t sigpipe;
        r
    | _ -> r
  in
  match d.Fdtab.d_kind with
  | Fdtab.F_inode i -> (
      match i.Vfs.kind with
      | Vfs.Reg b ->
          let pos =
            if d.Fdtab.d_flags land o_append <> 0 then Bytebuf.length b
            else d.Fdtab.d_pos
          in
          Bytebuf.pwrite b ~off:pos ~src:buf ~src_off:off ~len;
          d.Fdtab.d_pos <- pos + len;
          i.Vfs.mtime <- Fiber.now ();
          Ok len
      | Vfs.Dir _ -> Error Errno.EISDIR
      | Vfs.Fifo p ->
          tally_pipe ctx (sigpipe_wrap (Pipe.write p ~intr ~nonblock buf off len))
      | Vfs.Chardev cd -> cd.Vfs.cd_write buf off len
      | Vfs.Symlink _ | Vfs.Gen _ -> Error Errno.EINVAL)
  | Fdtab.F_gen _ -> Error Errno.EACCES
  | Fdtab.F_pipe_r _ -> Error Errno.EBADF
  | Fdtab.F_pipe_w p ->
      tally_pipe ctx (sigpipe_wrap (Pipe.write p ~intr ~nonblock buf off len))
  | Fdtab.F_fifo (p, _, has_w) ->
      if has_w then
        tally_pipe ctx (sigpipe_wrap (Pipe.write p ~intr ~nonblock buf off len))
      else Error Errno.EBADF
  | Fdtab.F_chardev cd -> cd.Vfs.cd_write buf off len
  | Fdtab.F_sock s ->
      tally_sock ctx (sigpipe_wrap (Socket.write s ~intr ~nonblock buf off len))

let with_fd ctx fd f =
  match Fdtab.get ctx.t.Task.fdtab fd with
  | None -> Error Errno.EBADF
  | Some d -> f d

(* ------------------------------------------------------------------ *)
(* I/O syscalls                                                         *)
(* ------------------------------------------------------------------ *)

let read ctx ~fd ~buf ~off ~len : int Errno.result =
  count ctx;
  if len < 0 then Error Errno.EINVAL
  else with_fd ctx fd (fun d -> desc_read ctx d buf off len)

let write ctx ~fd ~buf ~off ~len : int Errno.result =
  count ctx;
  if len < 0 then Error Errno.EINVAL
  else with_fd ctx fd (fun d -> desc_write ctx d buf off len)

let pread64 ctx ~fd ~buf ~off ~len ~pos : int Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_inode { Vfs.kind = Vfs.Reg b; _ } ->
          Ok (Bytebuf.pread b ~off:pos ~dst:buf ~dst_off:off ~len)
      | Fdtab.F_gen s ->
          if pos >= String.length s then Ok 0
          else begin
            let n = min len (String.length s - pos) in
            Bytes.blit_string s pos buf off n;
            Ok n
          end
      | _ -> Error Errno.ESPIPE)

let pwrite64 ctx ~fd ~buf ~off ~len ~pos : int Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_inode ({ Vfs.kind = Vfs.Reg b; _ } as i) ->
          Bytebuf.pwrite b ~off:pos ~src:buf ~src_off:off ~len;
          i.Vfs.mtime <- Fiber.now ();
          Ok len
      | _ -> Error Errno.ESPIPE)

let lseek ctx ~fd ~offset ~whence : int Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_inode { Vfs.kind = Vfs.Reg b; _ } ->
          let base =
            if whence = seek_set then 0
            else if whence = seek_cur then d.Fdtab.d_pos
            else if whence = seek_end then Bytebuf.length b
            else -1
          in
          if base < 0 then Error Errno.EINVAL
          else begin
            let np = base + offset in
            if np < 0 then Error Errno.EINVAL
            else begin
              d.Fdtab.d_pos <- np;
              Ok np
            end
          end
      | Fdtab.F_gen s ->
          let base =
            if whence = seek_set then 0
            else if whence = seek_cur then d.Fdtab.d_pos
            else String.length s
          in
          let np = base + offset in
          if np < 0 then Error Errno.EINVAL
          else begin
            d.Fdtab.d_pos <- np;
            Ok np
          end
      | Fdtab.F_inode { Vfs.kind = Vfs.Dir _; _ } ->
          if offset = 0 && whence = seek_set then begin
            d.Fdtab.d_dir_cookie <- 0;
            Ok 0
          end
          else Error Errno.EINVAL
      | _ -> Error Errno.ESPIPE)

(* ------------------------------------------------------------------ *)
(* open / close / stat                                                  *)
(* ------------------------------------------------------------------ *)

(* dirfd = AT_FDCWD (-100) resolves relative to cwd. *)
let at_fdcwd = -100

let dir_base ctx dirfd path : (Vfs.inode, Errno.t) result =
  if String.length path > 0 && path.[0] = '/' then Ok ctx.k.Task.fs.Vfs.root
  else if dirfd = at_fdcwd then Ok ctx.t.Task.cwd
  else
    match Fdtab.get ctx.t.Task.fdtab dirfd with
    | Some { Fdtab.d_kind = Fdtab.F_inode i; _ } when Vfs.is_dir i -> Ok i
    | Some _ -> Error Errno.ENOTDIR
    | None -> Error Errno.EBADF

let ( let* ) = Result.bind

let openat ctx ~dirfd ~path ~flags ~mode : int Errno.result =
  count ctx;
  vfs_op ctx "open";
  let* base = dir_base ctx dirfd path in
  let fs = ctx.k.Task.fs in
  let follow = true in
  let node =
    match Vfs.resolve fs ~cwd:base ~follow path with
    | Ok i ->
        if flags land o_creat <> 0 && flags land o_excl <> 0 then
          Error Errno.EEXIST
        else Ok i
    | Error Errno.ENOENT when flags land o_creat <> 0 ->
        let* parent, name = Vfs.resolve_parent fs ~cwd:base path in
        Vfs.create_file fs parent name
          ~mode:(mode land lnot ctx.t.Task.umask)
    | Error _ as e -> e
  in
  let* node = node in
  if flags land o_directory <> 0 && not (Vfs.is_dir node) then
    Error Errno.ENOTDIR
  else begin
    let* kind =
      match node.Vfs.kind with
      | Vfs.Reg b ->
          if flags land o_trunc <> 0 && flags land o_accmode <> o_rdonly then
            Bytebuf.truncate b 0;
          Ok (Fdtab.F_inode node)
      | Vfs.Dir _ ->
          if flags land o_accmode <> o_rdonly then Error Errno.EISDIR
          else Ok (Fdtab.F_inode node)
      | Vfs.Chardev _ -> Ok (Fdtab.F_inode node)
      | Vfs.Gen g -> Ok (Fdtab.F_gen (g ()))
      | Vfs.Fifo p ->
          let acc = flags land o_accmode in
          let r = acc = o_rdonly || acc = o_rdwr in
          let w = acc = o_wronly || acc = o_rdwr in
          if r then Pipe.add_reader p;
          if w then Pipe.add_writer p;
          Ok (Fdtab.F_fifo (p, r, w))
      | Vfs.Symlink _ -> Error Errno.ELOOP
    in
    let d = Fdtab.mk_desc ~flags ~path kind in
    noting ctx
      (Fdtab.install ~cloexec:(flags land o_cloexec <> 0) ctx.t.Task.fdtab d)
  end

let close ctx ~fd : unit Errno.result =
  count ctx;
  Fdtab.close ~sock_registry:ctx.k.Task.sockets ctx.t.Task.fdtab fd

let stat_path ctx ~dirfd ~path ~follow : stat Errno.result =
  count ctx;
  vfs_op ctx "stat";
  let* base = dir_base ctx dirfd path in
  let* node = Vfs.resolve ctx.k.Task.fs ~cwd:base ~follow path in
  Ok (Vfs.stat_of node)

let fstat ctx ~fd : stat Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_inode i -> Ok (Vfs.stat_of i)
      | Fdtab.F_gen s ->
          Ok
            {
              st_dev = 0; st_ino = 0; st_mode = s_ifreg lor 0o444; st_nlink = 1;
              st_uid = 0; st_gid = 0; st_rdev = 0;
              st_size = Int64.of_int (String.length s); st_blksize = 4096;
              st_blocks = 0L; st_atime_ns = 0L; st_mtime_ns = 0L;
              st_ctime_ns = 0L;
            }
      | Fdtab.F_pipe_r _ | Fdtab.F_pipe_w _ | Fdtab.F_fifo _ ->
          Ok
            {
              st_dev = 0; st_ino = 0; st_mode = s_ififo lor 0o600; st_nlink = 1;
              st_uid = ctx.t.Task.uid; st_gid = ctx.t.Task.gid; st_rdev = 0;
              st_size = 0L; st_blksize = 4096; st_blocks = 0L;
              st_atime_ns = 0L; st_mtime_ns = 0L; st_ctime_ns = 0L;
            }
      | Fdtab.F_chardev _ ->
          Ok
            {
              st_dev = 0; st_ino = 0; st_mode = s_ifchr lor 0o666; st_nlink = 1;
              st_uid = 0; st_gid = 0; st_rdev = 0x8801; st_size = 0L;
              st_blksize = 1024; st_blocks = 0L; st_atime_ns = 0L;
              st_mtime_ns = 0L; st_ctime_ns = 0L;
            }
      | Fdtab.F_sock _ ->
          Ok
            {
              st_dev = 0; st_ino = 0; st_mode = s_ifsock lor 0o777;
              st_nlink = 1; st_uid = ctx.t.Task.uid; st_gid = ctx.t.Task.gid;
              st_rdev = 0; st_size = 0L; st_blksize = 4096; st_blocks = 0L;
              st_atime_ns = 0L; st_mtime_ns = 0L; st_ctime_ns = 0L;
            })

let ftruncate ctx ~fd ~len : unit Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_inode { Vfs.kind = Vfs.Reg b; _ } ->
          if len < 0 then Error Errno.EINVAL
          else begin
            Bytebuf.truncate b len;
            Ok ()
          end
      | _ -> Error Errno.EINVAL)

let fsync ctx ~fd : unit Errno.result =
  count ctx;
  with_fd ctx fd (fun _ -> Ok ())

let faccessat ctx ~dirfd ~path ~amode : unit Errno.result =
  count ctx;
  ignore amode;
  let* base = dir_base ctx dirfd path in
  let* _ = Vfs.resolve ctx.k.Task.fs ~cwd:base path in
  Ok ()

(* ------------------------------------------------------------------ *)
(* Directory operations                                                 *)
(* ------------------------------------------------------------------ *)

let mkdirat ctx ~dirfd ~path ~mode : unit Errno.result =
  count ctx;
  vfs_op ctx "mkdir";
  let* base = dir_base ctx dirfd path in
  let* parent, name = Vfs.resolve_parent ctx.k.Task.fs ~cwd:base path in
  let* _ = Vfs.mkdir ctx.k.Task.fs parent name ~mode:(mode land lnot ctx.t.Task.umask) in
  Ok ()

let unlinkat ctx ~dirfd ~path ~rmdir_flag : unit Errno.result =
  count ctx;
  vfs_op ctx (if rmdir_flag then "rmdir" else "unlink");
  let* base = dir_base ctx dirfd path in
  let* parent, name = Vfs.resolve_parent ctx.k.Task.fs ~cwd:base path in
  if rmdir_flag then Vfs.rmdir ctx.k.Task.fs parent name else Vfs.unlink ctx.k.Task.fs parent name

let linkat ctx ~olddirfd ~oldpath ~newdirfd ~newpath : unit Errno.result =
  count ctx;
  vfs_op ctx "link";
  let* obase = dir_base ctx olddirfd oldpath in
  let* target = Vfs.resolve ctx.k.Task.fs ~cwd:obase oldpath in
  let* nbase = dir_base ctx newdirfd newpath in
  let* parent, name = Vfs.resolve_parent ctx.k.Task.fs ~cwd:nbase newpath in
  Vfs.link ctx.k.Task.fs parent name target

let symlinkat ctx ~target ~dirfd ~path : unit Errno.result =
  count ctx;
  vfs_op ctx "symlink";
  let* base = dir_base ctx dirfd path in
  let* parent, name = Vfs.resolve_parent ctx.k.Task.fs ~cwd:base path in
  let* _ = Vfs.symlink ctx.k.Task.fs parent name ~target in
  Ok ()

let readlinkat ctx ~dirfd ~path : string Errno.result =
  count ctx;
  vfs_op ctx "readlink";
  let* base = dir_base ctx dirfd path in
  let* node = Vfs.resolve ctx.k.Task.fs ~cwd:base ~follow:false path in
  match node.Vfs.kind with
  | Vfs.Symlink s -> Ok s
  | _ -> Error Errno.EINVAL

let renameat ctx ~olddirfd ~oldpath ~newdirfd ~newpath : unit Errno.result =
  count ctx;
  vfs_op ctx "rename";
  let* obase = dir_base ctx olddirfd oldpath in
  let* sdir, sname = Vfs.resolve_parent ctx.k.Task.fs ~cwd:obase oldpath in
  let* nbase = dir_base ctx newdirfd newpath in
  let* ddir, dname = Vfs.resolve_parent ctx.k.Task.fs ~cwd:nbase newpath in
  Vfs.rename ctx.k.Task.fs sdir sname ddir dname

let chdir ctx ~path : unit Errno.result =
  count ctx;
  let* node = Vfs.resolve ctx.k.Task.fs ~cwd:ctx.t.Task.cwd path in
  if Vfs.is_dir node then begin
    ctx.t.Task.cwd <- node;
    Ok ()
  end
  else Error Errno.ENOTDIR

let fchdir ctx ~fd : unit Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_inode i when Vfs.is_dir i ->
          ctx.t.Task.cwd <- i;
          Ok ()
      | _ -> Error Errno.ENOTDIR)

let getcwd ctx : string Errno.result =
  count ctx;
  Ok (Vfs.path_of ctx.k.Task.fs ctx.t.Task.cwd)

let fchmodat ctx ~dirfd ~path ~mode : unit Errno.result =
  count ctx;
  let* base = dir_base ctx dirfd path in
  let* node = Vfs.resolve ctx.k.Task.fs ~cwd:base path in
  node.Vfs.mode <- mode land 0o7777;
  node.Vfs.ctime <- Fiber.now ();
  Ok ()

let fchownat ctx ~dirfd ~path ~uid ~gid : unit Errno.result =
  count ctx;
  let* base = dir_base ctx dirfd path in
  let* node = Vfs.resolve ctx.k.Task.fs ~cwd:base path in
  if ctx.t.Task.euid <> 0 && ctx.t.Task.euid <> node.Vfs.uid then
    Error Errno.EPERM
  else begin
    if uid >= 0 then node.Vfs.uid <- uid;
    if gid >= 0 then node.Vfs.gid <- gid;
    Ok ()
  end

(** getdents64: up to [max] entries starting at the fd's cookie. *)
let getdents ctx ~fd ~max : (string * int * int) list Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_inode i when Vfs.is_dir i ->
          let all = Vfs.readdir i in
          let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r in
          let rec take n l =
            if n = 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r
          in
          let slice = take max (drop d.Fdtab.d_dir_cookie all) in
          d.Fdtab.d_dir_cookie <- d.Fdtab.d_dir_cookie + List.length slice;
          Ok slice
      | _ -> Error Errno.ENOTDIR)

let utimensat ctx ~dirfd ~path ~atime_ns ~mtime_ns : unit Errno.result =
  count ctx;
  let* base = dir_base ctx dirfd path in
  let* node = Vfs.resolve ctx.k.Task.fs ~cwd:base path in
  node.Vfs.atime <- atime_ns;
  node.Vfs.mtime <- mtime_ns;
  Ok ()

(* ------------------------------------------------------------------ *)
(* dup / fcntl / ioctl / pipe                                           *)
(* ------------------------------------------------------------------ *)

let dup ctx ~fd : int Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      Fdtab.incref d;
      noting ctx (Fdtab.install ctx.t.Task.fdtab d))

let dup3 ctx ~fd ~newfd ~cloexec : int Errno.result =
  count ctx;
  if fd = newfd then
    if Fdtab.get ctx.t.Task.fdtab fd = None then Error Errno.EBADF else Ok fd
  else
    with_fd ctx fd (fun d ->
        Fdtab.incref d;
        noting ctx
          (Fdtab.install_at ~cloexec ~sock_registry:ctx.k.Task.sockets
             ctx.t.Task.fdtab newfd d))

let fcntl ctx ~fd ~cmd ~arg : int Errno.result =
  count ctx;
  match Fdtab.get_entry ctx.t.Task.fdtab fd with
  | None -> Error Errno.EBADF
  | Some e ->
      let d = e.Fdtab.e_desc in
      if cmd = f_dupfd || cmd = f_dupfd_cloexec then begin
        Fdtab.incref d;
        noting ctx
          (Fdtab.install ~from:arg ~cloexec:(cmd = f_dupfd_cloexec)
             ctx.t.Task.fdtab d)
      end
      else if cmd = f_getfd then Ok (if e.Fdtab.e_cloexec then fd_cloexec else 0)
      else if cmd = f_setfd then begin
        e.Fdtab.e_cloexec <- arg land fd_cloexec <> 0;
        Ok 0
      end
      else if cmd = f_getfl then Ok d.Fdtab.d_flags
      else if cmd = f_setfl then begin
        (* Only O_APPEND and O_NONBLOCK are mutable. *)
        let keep = d.Fdtab.d_flags land lnot (o_append lor o_nonblock) in
        d.Fdtab.d_flags <- keep lor (arg land (o_append lor o_nonblock));
        Ok 0
      end
      else Error Errno.EINVAL

let ioctl ctx ~fd ~request : int Errno.result =
  count ctx;
  with_fd ctx fd (fun d ->
      if request = tiocgwinsz then
        match d.Fdtab.d_kind with
        | Fdtab.F_inode { Vfs.kind = Vfs.Chardev _; _ } | Fdtab.F_chardev _ ->
            Ok 0 (* caller fills 80x24 via the WALI layer *)
        | _ -> Error Errno.ENOTTY
      else if request = fionread then
        match d.Fdtab.d_kind with
        | Fdtab.F_pipe_r p | Fdtab.F_fifo (p, true, _) -> Ok (Pipe.available p)
        | Fdtab.F_sock s -> (
            match s.Socket.state with
            | Socket.S_connected c -> Ok (Pipe.available c.Socket.rx)
            | _ -> Ok 0)
        | _ -> Ok 0
      else Error Errno.EINVAL)

let pipe2 ctx ~flags : (int * int) Errno.result =
  count ctx;
  let p = Pipe.create () in
  let cloexec = flags land o_cloexec <> 0 in
  let dr = Fdtab.mk_desc ~flags:(flags land o_nonblock) (Fdtab.F_pipe_r p) in
  let dw = Fdtab.mk_desc ~flags:(flags land o_nonblock) (Fdtab.F_pipe_w p) in
  let* r = noting ctx (Fdtab.install ~cloexec ctx.t.Task.fdtab dr) in
  let* w = noting ctx (Fdtab.install ~cloexec ctx.t.Task.fdtab dw) in
  Ok (r, w)

(* ------------------------------------------------------------------ *)
(* poll                                                                 *)
(* ------------------------------------------------------------------ *)

let desc_poll_bits (d : Fdtab.desc) : int =
  match d.Fdtab.d_kind with
  | Fdtab.F_inode i -> (
      match i.Vfs.kind with
      | Vfs.Reg _ | Vfs.Dir _ -> pollin lor pollout
      | Vfs.Fifo p -> Pipe.poll_read p lor Pipe.poll_write p
      | Vfs.Chardev cd -> cd.Vfs.cd_poll ()
      | Vfs.Symlink _ | Vfs.Gen _ -> pollin)
  | Fdtab.F_gen _ -> pollin
  | Fdtab.F_pipe_r p -> Pipe.poll_read p
  | Fdtab.F_pipe_w p -> Pipe.poll_write p
  | Fdtab.F_fifo (p, r, w) ->
      (if r then Pipe.poll_read p else 0) lor if w then Pipe.poll_write p else 0
  | Fdtab.F_chardev cd -> cd.Vfs.cd_poll ()
  | Fdtab.F_sock s -> Socket.poll_bits s

let poll_tick_ns = 200_000L (* virtual re-check interval *)

(** poll(2). [fds] is (fd, events) list; returns revents per entry and the
    ready count. [timeout_ms] < 0 means infinite. *)
let poll ctx ~(fds : (int * int) list) ~timeout_ms :
    (int * int list) Errno.result =
  count ctx;
  let deadline =
    if timeout_ms < 0 then None
    else Some (Int64.add (Fiber.now ()) (Int64.mul (Int64.of_int timeout_ms) 1_000_000L))
  in
  let dummy : unit Waitq.t = Waitq.create () in
  let rec go () =
    let revents =
      List.map
        (fun (fd, events) ->
          match Fdtab.get ctx.t.Task.fdtab fd with
          | None -> if fd < 0 then 0 else pollnval
          | Some d ->
              let bits = desc_poll_bits d in
              bits land (events lor pollerr lor pollhup lor pollnval))
        fds
    in
    let ready = List.length (List.filter (fun r -> r <> 0) revents) in
    if ready > 0 then Ok (ready, revents)
    else begin
      let expired =
        match deadline with
        | Some dl -> Int64.compare (Fiber.now ()) dl >= 0
        | None -> false
      in
      if expired || timeout_ms = 0 then Ok (0, revents)
      else begin
        let remaining =
          match deadline with
          | Some dl -> min poll_tick_ns (Int64.sub dl (Fiber.now ()))
          | None -> poll_tick_ns
        in
        match Waitq.wait ~timeout_ns:remaining ~intr:ctx.t.Task.intr dummy with
        | Waitq.Interrupted -> Error Errno.EINTR
        | Waitq.Timeout | Waitq.Woken () -> go ()
      end
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Sockets                                                              *)
(* ------------------------------------------------------------------ *)

let socket ctx ~family ~stype : int Errno.result =
  count ctx;
  if family <> af_unix && family <> af_inet then Error Errno.EAFNOSUPPORT
  else if stype land 0xff <> sock_stream then Error Errno.EPROTONOSUPPORT
  else begin
    let s = Socket.create ~family in
    let d = Fdtab.mk_desc (Fdtab.F_sock s) in
    noting ctx (Fdtab.install ctx.t.Task.fdtab d)
  end

let with_sock ctx fd f =
  with_fd ctx fd (fun d ->
      match d.Fdtab.d_kind with
      | Fdtab.F_sock s -> f d s
      | _ -> Error Errno.ENOTSOCK)

let bind ctx ~fd ~addr : unit Errno.result =
  count ctx;
  with_sock ctx fd (fun _ s -> Socket.bind ctx.k.Task.sockets s addr)

let listen ctx ~fd ~backlog : unit Errno.result =
  count ctx;
  with_sock ctx fd (fun _ s -> Socket.listen ctx.k.Task.sockets s ~backlog)

let accept ctx ~fd : int Errno.result =
  count ctx;
  with_sock ctx fd (fun d s ->
      let* peer = Socket.accept s ~intr:ctx.t.Task.intr ~nonblock:(nonblock_of d) in
      let nd = Fdtab.mk_desc (Fdtab.F_sock peer) in
      noting ctx (Fdtab.install ctx.t.Task.fdtab nd))

let connect ctx ~fd ~addr : unit Errno.result =
  count ctx;
  with_sock ctx fd (fun _ s ->
      Socket.connect ctx.k.Task.sockets s addr ~intr:ctx.t.Task.intr)

let shutdown ctx ~fd ~how : unit Errno.result =
  count ctx;
  with_sock ctx fd (fun _ s -> Socket.shutdown s how)

let socketpair ctx ~family : (int * int) Errno.result =
  count ctx;
  let a, b = Socket.pair ~family in
  let* fa =
    noting ctx (Fdtab.install ctx.t.Task.fdtab (Fdtab.mk_desc (Fdtab.F_sock a)))
  in
  let* fb =
    noting ctx (Fdtab.install ctx.t.Task.fdtab (Fdtab.mk_desc (Fdtab.F_sock b)))
  in
  Ok (fa, fb)

let setsockopt ctx ~fd ~level ~opt ~value : unit Errno.result =
  count ctx;
  with_sock ctx fd (fun _ s ->
      Hashtbl.replace s.Socket.opts (level, opt) value;
      Ok ())

let getsockopt ctx ~fd ~level ~opt : int Errno.result =
  count ctx;
  with_sock ctx fd (fun _ s ->
      Ok (Option.value (Hashtbl.find_opt s.Socket.opts (level, opt)) ~default:0))

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)
(* ------------------------------------------------------------------ *)

let rt_sigaction ctx ~signo ~(action : sigaction option) :
    sigaction Errno.result =
  count ctx;
  if signo < 1 || signo > nsig || signo = sigkill || signo = sigstop then
    if action = None && signo >= 1 && signo <= nsig then
      Ok ctx.t.Task.group.Task.actions.(signo)
    else Error Errno.EINVAL
  else begin
    let old = ctx.t.Task.group.Task.actions.(signo) in
    (match action with
    | Some a -> ctx.t.Task.group.Task.actions.(signo) <- a
    | None -> ());
    Ok old
  end

let rt_sigprocmask ctx ~how ~(set : Sigset.t option) : Sigset.t Errno.result =
  count ctx;
  let old = ctx.t.Task.sigmask in
  (match set with
  | Some s ->
      let s = Sigset.remove (Sigset.remove s sigkill) sigstop in
      if how = sig_block then ctx.t.Task.sigmask <- Sigset.union old s
      else if how = sig_unblock then ctx.t.Task.sigmask <- Sigset.diff old s
      else if how = sig_setmask then ctx.t.Task.sigmask <- s
  | None -> ());
  Ok old

let rt_sigpending ctx : Sigset.t Errno.result =
  count ctx;
  Ok (Sigset.inter
        (Sigset.union ctx.t.Task.pending ctx.t.Task.group.Task.group_pending)
        ctx.t.Task.sigmask)

let kill ctx ~pid ~signo : unit Errno.result =
  count ctx;
  Task.kill ctx.k ctx.t ~pid ~signo

(** tkill, and tgkill when [tgid] is given: the thread must then belong
    to that thread group. *)
let tkill ?tgid ctx ~tid ~signo : unit Errno.result =
  count ctx;
  match Task.find ctx.k tid with
  | Some t when t.Task.state = Task.Running
                && Option.fold tgid ~none:true ~some:(Int.equal t.Task.tgid) ->
      if signo < 0 || signo > nsig then Error Errno.EINVAL
      else begin
        if signo <> 0 then Task.post_to_thread ctx.k t signo;
        Ok ()
      end
  | _ -> Error Errno.ESRCH

let alarm ctx ~seconds : int Errno.result =
  count ctx;
  let t = ctx.t in
  t.Task.alarm_gen <- t.Task.alarm_gen + 1;
  let gen = t.Task.alarm_gen in
  if seconds > 0 then
    Fiber.at
      (Int64.add (Fiber.now ()) (Int64.mul (Int64.of_int seconds) 1_000_000_000L))
      (fun () ->
        if t.Task.alarm_gen = gen && t.Task.state = Task.Running then
          Task.post_to_group ctx.k t.Task.group sigalrm);
  Ok 0

let pause ctx : unit Errno.result =
  count ctx;
  let dummy : unit Waitq.t = Waitq.create () in
  match Waitq.wait ~intr:ctx.t.Task.intr dummy with
  | Waitq.Interrupted -> Error Errno.EINTR
  | Waitq.Woken () | Waitq.Timeout -> Error Errno.EINTR

let nanosleep ctx ~ns : unit Errno.result =
  count ctx;
  if ns <= 0L then Ok ()
  else begin
    let dummy : unit Waitq.t = Waitq.create () in
    match Waitq.wait ~timeout_ns:ns ~intr:ctx.t.Task.intr dummy with
    | Waitq.Timeout -> Ok ()
    | Waitq.Interrupted -> Error Errno.EINTR
    | Waitq.Woken () -> Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Identity / misc                                                      *)
(* ------------------------------------------------------------------ *)

let getpid ctx = count ctx; ctx.t.Task.tgid
let getppid ctx = count ctx; ctx.t.Task.ppid
let gettid ctx = count ctx; ctx.t.Task.tid
let getuid ctx = count ctx; ctx.t.Task.uid
let geteuid ctx = count ctx; ctx.t.Task.euid
let getgid ctx = count ctx; ctx.t.Task.gid
let getegid ctx = count ctx; ctx.t.Task.egid

let setuid ctx ~uid : unit Errno.result =
  count ctx;
  if ctx.t.Task.euid = 0 || uid = ctx.t.Task.uid then begin
    ctx.t.Task.uid <- uid;
    ctx.t.Task.euid <- uid;
    Ok ()
  end
  else Error Errno.EPERM

let setgid ctx ~gid : unit Errno.result =
  count ctx;
  if ctx.t.Task.euid = 0 || gid = ctx.t.Task.gid then begin
    ctx.t.Task.gid <- gid;
    ctx.t.Task.egid <- gid;
    Ok ()
  end
  else Error Errno.EPERM

let getpgid ctx ~pid : int Errno.result =
  count ctx;
  if pid = 0 then Ok ctx.t.Task.pgid
  else
    match Task.find ctx.k pid with
    | Some t -> Ok t.Task.pgid
    | None -> Error Errno.ESRCH

let setpgid ctx ~pid ~pgid : unit Errno.result =
  count ctx;
  let target = if pid = 0 then Some ctx.t else Task.find ctx.k pid in
  match target with
  | Some t ->
      t.Task.pgid <- (if pgid = 0 then t.Task.tgid else pgid);
      Ok ()
  | None -> Error Errno.ESRCH

let setsid ctx : int Errno.result =
  count ctx;
  if ctx.t.Task.pgid = ctx.t.Task.tgid then Error Errno.EPERM
  else begin
    ctx.t.Task.sid <- ctx.t.Task.tgid;
    ctx.t.Task.pgid <- ctx.t.Task.tgid;
    Ok ctx.t.Task.tgid
  end

let umask ctx ~mask : int =
  count ctx;
  let old = ctx.t.Task.umask in
  ctx.t.Task.umask <- mask land 0o777;
  old

let uname _ctx =
  ( "Linux", "wali-sim", "6.1.0-wali", "#1 SMP PREEMPT_DYNAMIC", "wasm32",
    "(none)" )

let sysinfo ctx =
  count ctx;
  (Fiber.now (), Hashtbl.length ctx.k.Task.tasks)

let getrusage ctx ~who : (int64 * int64 * int) Errno.result =
  count ctx;
  ignore who;
  Ok (ctx.t.Task.utime, ctx.t.Task.stime, ctx.t.Task.vm_peak / 1024)

let prlimit64 ctx ~resource : (int64 * int64) Errno.result =
  count ctx;
  if resource = rlimit_nofile then
    Ok (Int64.of_int ctx.t.Task.fdtab.Fdtab.max_fds,
        Int64.of_int ctx.t.Task.fdtab.Fdtab.max_fds)
  else if resource = rlimit_stack then Ok (8_388_608L, 8_388_608L)
  else Ok (Int64.max_int, Int64.max_int)

let clock_gettime ctx ~clock : int64 =
  count ctx;
  Task.clock_gettime ctx.k clock

let getrandom ctx ~buf ~off ~len : int Errno.result =
  count ctx;
  (* Same deterministic generator as /dev/urandom semantics-wise. *)
  let seed = ref (Int64.add 0x2545F4914F6CDD1DL (Int64.of_int (ctx.t.Task.tid * 7919))) in
  for i = 0 to len - 1 do
    let x = !seed in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    seed := x;
    Bytes.set buf (off + i) (Char.chr (Int64.to_int (Int64.logand x 0xFFL)))
  done;
  Ok len

let sched_yield ctx : unit =
  count ctx;
  Fiber.yield ()

let futex_wait ctx ~mem_id ~addr ~load ~expected ~timeout_ns : unit Errno.result =
  count ctx;
  let s = kstats ctx in
  s.Observe.Metrics.futex_waits <- s.Observe.Metrics.futex_waits + 1;
  Futex.wait ctx.futexes ~key:(mem_id, addr) ~load ~expected ?timeout_ns
    ~intr:ctx.t.Task.intr ()

let futex_wake ctx ~mem_id ~addr ~n : int =
  count ctx;
  let woken = Futex.wake ctx.futexes ~key:(mem_id, addr) ~n in
  let s = kstats ctx in
  s.Observe.Metrics.futex_wakes <- s.Observe.Metrics.futex_wakes + woken;
  woken

let wait4 ctx ~pid ~options : (Task.wait_result option, Errno.t) result =
  count ctx;
  Task.wait4 ctx.k ctx.t ~pid ~options

(** execve, kernel half: resolve and read the new image; close CLOEXEC
    fds. The engine swaps the machine. *)
let execve_load ctx ~path : string Errno.result =
  count ctx;
  let* node = Vfs.resolve ctx.k.Task.fs ~cwd:ctx.t.Task.cwd path in
  match node.Vfs.kind with
  | Vfs.Reg b ->
      if node.Vfs.mode land 0o111 = 0 then Error Errno.EACCES
      else begin
        Fdtab.close_cloexec ~sock_registry:ctx.k.Task.sockets ctx.t.Task.fdtab;
        ctx.t.Task.comm <- Filename.basename path;
        Ok (Bytebuf.contents b)
      end
  | Vfs.Dir _ -> Error Errno.EISDIR
  | _ -> Error Errno.EACCES
