(** The WALI syscall specification: name-bound, statically-typed virtual
    syscalls forming the union across supported ISAs (paper §3.5).

    Every WALI syscall is imported as [("wali", "SYS_" ^ name)] with all
    arguments normalized to i64 and an i64 result carrying the kernel
    convention (negative values are -errno). A binary's import section is
    therefore its complete syscall manifest, which is what the Table 1
    porting analysis inspects. *)

type entry = {
  name : string;
  arity : int;
  (* Implementation metadata reported in Table 2. *)
  loc : int; (* handler size, lines of code *)
  stateful : bool; (* maintains WALI-internal state *)
  implemented : bool; (* false = auto-generated ENOSYS passthrough stub *)
}

let s ?(loc = 4) ?(stateful = false) ?(impl = true) name arity =
  { name; arity; loc; stateful; implemented = impl }

(** The implemented set: the "critical mass" of ~140 calls (§4). Arity is
    the Linux argument count. LoC reflects this repository's handlers. *)
let implemented : entry list =
  [
    s "read" 3;
    s "write" 3 ~loc:5;
    s "open" 3;
    s "openat" 4;
    s "close" 1 ~loc:3;
    s "stat" 2 ~loc:8;
    s "fstat" 2;
    s "lstat" 2 ~loc:6;
    s "newfstatat" 4 ~loc:8;
    s "poll" 3 ~loc:12;
    s "ppoll" 4 ~loc:12;
    s "lseek" 3 ~loc:3;
    s "mmap" 6 ~loc:30 ~stateful:true;
    s "mremap" 5 ~loc:18 ~stateful:true;
    s "munmap" 2 ~loc:12 ~stateful:true;
    s "mprotect" 3;
    s "msync" 3 ~loc:6 ~stateful:true;
    s "madvise" 3 ~loc:2;
    s "mincore" 3 ~loc:2;
    s "brk" 1 ~loc:3 ~stateful:true;
    s "rt_sigaction" 4 ~loc:40 ~stateful:true;
    s "rt_sigprocmask" 4 ~loc:5;
    s "rt_sigpending" 2 ~loc:4;
    s "rt_sigsuspend" 2 ~loc:8;
    s "rt_sigreturn" 0 ~loc:2;
    s "sigaltstack" 2 ~loc:2;
    s "ioctl" 3;
    s "pread64" 4;
    s "pwrite64" 4;
    s "readv" 3 ~loc:9;
    s "writev" 3 ~loc:10;
    s "access" 2 ~loc:8;
    s "faccessat" 3 ~loc:8;
    s "pipe" 1 ~loc:6;
    s "pipe2" 2 ~loc:6;
    s "select" 5 ~loc:14;
    s "pselect6" 6 ~loc:14;
    s "sched_yield" 0 ~loc:2;
    s "dup" 1 ~loc:3;
    s "dup2" 2 ~loc:4;
    s "dup3" 3 ~loc:4;
    s "pause" 0 ~loc:3;
    s "nanosleep" 2 ~loc:6;
    s "clock_nanosleep" 4 ~loc:6;
    s "alarm" 1 ~loc:4;
    s "setitimer" 3 ~loc:8;
    s "getitimer" 2 ~loc:4;
    s "getpid" 0 ~loc:1;
    s "getppid" 0 ~loc:1;
    s "gettid" 0 ~loc:1;
    s "socket" 3 ~loc:5;
    s "connect" 3 ~loc:8;
    s "accept" 3 ~loc:7;
    s "accept4" 4 ~loc:7;
    s "sendto" 6 ~loc:8;
    s "recvfrom" 6 ~loc:8;
    s "shutdown" 2 ~loc:3;
    s "bind" 3 ~loc:7;
    s "listen" 2 ~loc:3;
    s "getsockname" 3 ~loc:6;
    s "getpeername" 3 ~loc:6;
    s "socketpair" 4 ~loc:7;
    s "setsockopt" 5 ~loc:5;
    s "getsockopt" 5 ~loc:6;
    s "clone" 5 ~loc:100 ~stateful:true;
    s "fork" 0 ~loc:1 ~stateful:true;
    s "vfork" 0 ~loc:1 ~stateful:true;
    s "execve" 3 ~loc:25 ~stateful:true;
    s "exit" 1 ~loc:2;
    s "exit_group" 1 ~loc:3;
    s "wait4" 4 ~loc:12;
    s "waitid" 5 ~loc:12;
    s "kill" 2 ~loc:3;
    s "tkill" 2 ~loc:3;
    s "tgkill" 3 ~loc:3;
    s "uname" 1 ~loc:8;
    s "fcntl" 3 ~loc:10;
    s "flock" 2 ~loc:2;
    s "fsync" 1 ~loc:2;
    s "fdatasync" 1 ~loc:2;
    s "truncate" 2 ~loc:5;
    s "ftruncate" 2 ~loc:3;
    s "getdents64" 3 ~loc:14;
    s "getcwd" 2 ~loc:5;
    s "chdir" 1 ~loc:3;
    s "fchdir" 1 ~loc:3;
    s "rename" 2 ~loc:5;
    s "renameat" 4 ~loc:5;
    s "renameat2" 5 ~loc:5;
    s "mkdir" 2 ~loc:4;
    s "mkdirat" 3 ~loc:4;
    s "rmdir" 1 ~loc:4;
    s "link" 2 ~loc:5;
    s "linkat" 5 ~loc:5;
    s "unlink" 1 ~loc:4;
    s "unlinkat" 3 ~loc:4;
    s "symlink" 2 ~loc:4;
    s "symlinkat" 3 ~loc:4;
    s "readlink" 3 ~loc:6;
    s "readlinkat" 4 ~loc:6;
    s "chmod" 2 ~loc:4;
    s "fchmod" 2 ~loc:4;
    s "fchmodat" 3 ~loc:4;
    s "chown" 3 ~loc:4;
    s "fchown" 3 ~loc:4;
    s "fchownat" 5 ~loc:4;
    s "lchown" 3 ~loc:4;
    s "umask" 1 ~loc:2;
    s "gettimeofday" 2 ~loc:5;
    s "clock_gettime" 2 ~loc:4;
    s "clock_getres" 2 ~loc:3;
    s "time" 1 ~loc:2;
    s "getrlimit" 2 ~loc:5;
    s "setrlimit" 2 ~loc:2;
    s "prlimit64" 4 ~loc:5;
    s "getrusage" 2 ~loc:5;
    s "sysinfo" 1 ~loc:6;
    s "times" 1 ~loc:4;
    s "getuid" 0 ~loc:1;
    s "getgid" 0 ~loc:1;
    s "geteuid" 0 ~loc:1;
    s "getegid" 0 ~loc:1;
    s "setuid" 1 ~loc:2;
    s "setgid" 1 ~loc:2;
    s "getgroups" 2 ~loc:2;
    s "setpgid" 2 ~loc:3;
    s "getpgid" 1 ~loc:3;
    s "getpgrp" 0 ~loc:2;
    s "setsid" 0 ~loc:3;
    s "getsid" 1 ~loc:2;
    s "utimensat" 4 ~loc:6;
    s "futex" 6 ~loc:6;
    s "set_tid_address" 1 ~loc:2;
    s "set_robust_list" 2 ~loc:2;
    s "getrandom" 3 ~loc:5;
    s "statfs" 2 ~loc:6;
    s "fstatfs" 2 ~loc:6;
    s "sync" 0 ~loc:1;
    s "sched_getaffinity" 3 ~loc:4;
    s "sched_setaffinity" 3 ~loc:2;
    s "prctl" 5 ~loc:4;
    s "sendfile" 4 ~loc:10;
    s "fadvise64" 4 ~loc:1;
    s "membarrier" 2 ~loc:1;
  ]

(** Remaining Linux API: auto-generated passthrough stubs that return
    -ENOSYS with a trace entry, matching the paper's claim that >85% of
    the surface is mechanically generatable (§5/§6). *)
let stubs : entry list =
  let implemented_names = List.map (fun e -> e.name) implemented in
  Tables.Linux_tables.all
  |> List.filter_map (fun (t : Tables.Linux_tables.entry) ->
         if List.mem t.Tables.Linux_tables.name implemented_names then None
         else Some (s ~loc:1 ~impl:false t.Tables.Linux_tables.name 6))

let all : entry list = implemented @ stubs

(* one name table, built once (names are unique) *)
let by_name = Hashtbl.of_seq (List.to_seq (List.map (fun e -> (e.name, e)) all))
let find name = Hashtbl.find_opt by_name name

let import_module = "wali"
let import_name name = "SYS_" ^ name

(** Environment/argument support methods (paper §3.4). *)
let env_methods =
  [ ("get_argc", 0); ("get_argv_len", 1); ("copy_argv", 2);
    ("get_envc", 0); ("get_env_len", 1); ("copy_env", 2) ]

let implemented_count = List.length implemented
let total_count = List.length all
