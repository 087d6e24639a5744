(** Kernel ABI constants and record types shared by the VFS, tasks, the
    WALI marshalling layer and the MiniC libc. The numeric values follow
    the Linux generic (asm-generic) ABI; WALI's dedicated portable layout
    (paper §3.5) is defined against these. *)

(* ---- open(2) flags (octal, asm-generic) ---- *)

let o_rdonly = 0o0
let o_wronly = 0o1
let o_rdwr = 0o2
let o_accmode = 0o3
let o_creat = 0o100
let o_excl = 0o200
let o_noctty = 0o400
let o_trunc = 0o1000
let o_append = 0o2000
let o_nonblock = 0o4000
let o_directory = 0o200000
let o_cloexec = 0o2000000

(* ---- lseek whence ---- *)

let seek_set = 0
let seek_cur = 1
let seek_end = 2

(* ---- file modes ---- *)

let s_ifmt = 0o170000
let s_ifreg = 0o100000
let s_ifdir = 0o040000
let s_iflnk = 0o120000
let s_ififo = 0o010000
let s_ifchr = 0o020000
let s_ifsock = 0o140000

(* ---- stat: the WALI portable kstat layout carries these fields ---- *)

type stat = {
  st_dev : int;
  st_ino : int;
  st_mode : int;
  st_nlink : int;
  st_uid : int;
  st_gid : int;
  st_rdev : int;
  st_size : int64;
  st_blksize : int;
  st_blocks : int64;
  st_atime_ns : int64;
  st_mtime_ns : int64;
  st_ctime_ns : int64;
}

(* ---- signals ---- *)

let sighup = 1
let sigint = 2
let sigquit = 3
let sigill = 4
let sigtrap = 5
let sigabrt = 6
let sigbus = 7
let sigfpe = 8
let sigkill = 9
let sigusr1 = 10
let sigsegv = 11
let sigusr2 = 12
let sigpipe = 13
let sigalrm = 14
let sigterm = 15
let sigchld = 17
let sigcont = 18
let sigstop = 19
let sigtstp = 20
let sigttin = 21
let sigttou = 22
let sigurg = 23
let sigxcpu = 24
let sigwinch = 28
let sigsys = 31
let nsig = 64

let signal_name n =
  match n with
  | 1 -> "SIGHUP" | 2 -> "SIGINT" | 3 -> "SIGQUIT" | 4 -> "SIGILL"
  | 5 -> "SIGTRAP" | 6 -> "SIGABRT" | 7 -> "SIGBUS" | 8 -> "SIGFPE"
  | 9 -> "SIGKILL" | 10 -> "SIGUSR1" | 11 -> "SIGSEGV" | 12 -> "SIGUSR2"
  | 13 -> "SIGPIPE" | 14 -> "SIGALRM" | 15 -> "SIGTERM" | 17 -> "SIGCHLD"
  | 18 -> "SIGCONT" | 19 -> "SIGSTOP" | 20 -> "SIGTSTP" | 21 -> "SIGTTIN"
  | 22 -> "SIGTTOU" | n -> Printf.sprintf "SIG%d" n

(* Signal sets as 64-bit masks; bit (n-1) is signal n, as in the kernel. *)
module Sigset = struct
  type t = int64

  let empty : t = 0L
  let full : t = -1L
  let bit n = Int64.shift_left 1L (n - 1)
  let mem s n = Int64.logand s (bit n) <> 0L
  let add s n = Int64.logor s (bit n)
  let remove s n = Int64.logand s (Int64.lognot (bit n))
  let union = Int64.logor
  let inter = Int64.logand
  let diff a b = Int64.logand a (Int64.lognot b)
  let is_empty s = s = 0L

  (** Lowest pending signal number in [s], if any (delivery order). *)
  let lowest s =
    if s = 0L then None
    else begin
      let rec go n = if mem s n then Some n else go (n + 1) in
      go 1
    end
end

(* rt_sigprocmask how *)
let sig_block = 0
let sig_unblock = 1
let sig_setmask = 2

(* sigaction sa_handler special values *)
let sig_dfl = 0
let sig_ign = 1

(* sa_flags *)
let sa_nocldstop = 1
let sa_nodefer = 0x40000000
let sa_restart = 0x10000000

type sigaction = {
  sa_handler : int; (* 0 = SIG_DFL, 1 = SIG_IGN, else wasm table index / fn addr *)
  sa_mask : Sigset.t;
  sa_flags : int;
}

let sigaction_default = { sa_handler = sig_dfl; sa_mask = Sigset.empty; sa_flags = 0 }

(* ---- default dispositions ---- *)

type disposition = Term | Ign | Core | Stop | Cont

let default_disposition n =
  if n = sigchld || n = sigurg || n = sigwinch then Ign
  else if n = sigstop || n = sigtstp || n = sigttin || n = sigttou then Stop
  else if n = sigcont then Cont
  else if n = sigquit || n = sigill || n = sigtrap || n = sigabrt || n = sigbus
          || n = sigfpe || n = sigsegv || n = sigsys || n = sigxcpu then Core
  else Term

(* ---- clone flags ---- *)

let clone_vm = 0x00000100
let clone_fs = 0x00000200
let clone_files = 0x00000400
let clone_sighand = 0x00000800
let clone_thread = 0x00010000
let clone_child_settid = 0x01000000
let clone_child_cleartid = 0x00200000

(* ---- mmap ---- *)

let prot_read = 1
let prot_write = 2
let prot_exec = 4
let map_shared = 0x01
let map_private = 0x02
let map_fixed = 0x10
let map_anonymous = 0x20

(* ---- wait4 options ---- *)

let wnohang = 1
let wuntraced = 2

(* Exit status encoding, as the kernel packs it for wait4. *)
let wexit_status code = (code land 0xff) lsl 8
let wsignal_status signo = signo land 0x7f

(* The exit code a shell gives for wait status [status]: the process's
   exit code, or 128 + the signal number if a signal ended it. *)
let shell_exit_code status =
  let signo = status land 0x7f in
  if signo = 0 then (status lsr 8) land 0xff else 128 + signo

(* ---- clocks ---- *)

let clock_realtime = 0
let clock_monotonic = 1
let clock_process_cputime = 2
let clock_monotonic_raw = 4

(* ---- fcntl ---- *)

let f_dupfd = 0
let f_getfd = 1
let f_setfd = 2
let f_getfl = 3
let f_setfl = 4
let f_dupfd_cloexec = 1030
let fd_cloexec = 1

(* ---- futex ops ---- *)

let futex_wait = 0
let futex_wake = 1
let futex_private = 128

(* ---- poll events ---- *)

let pollin = 0x001
let pollout = 0x004
let pollerr = 0x008
let pollhup = 0x010
let pollnval = 0x020

(* ---- ioctl ---- *)

let tiocgwinsz = 0x5413
let fionread = 0x541B

(* ---- dirent types ---- *)

let dt_unknown = 0
let dt_fifo = 1
let dt_chr = 2
let dt_dir = 4
let dt_reg = 8
let dt_lnk = 10
let dt_sock = 12

(* ---- sockets ---- *)

let af_unix = 1
let af_inet = 2
let sock_stream = 1
let sock_dgram = 2
let sol_socket = 1
let so_reuseaddr = 2
let so_rcvbuf = 8
let so_sndbuf = 7
let shut_rd = 0
let shut_wr = 1
let shut_rdwr = 2

(* ---- resource limits ---- *)

let rlimit_nofile = 7
let rlimit_stack = 3
