(** The application suite: Table 1 rows, Fig 2 profile workloads and the
    Fig 8 benchmark inputs, with the porting analysis over API feature
    sets. *)

type app = {
  a_name : string;
  a_paper_name : string; (* the Table 1 codebase it stands in for *)
  a_description : string;
  a_source : string;
  a_argv : string list; (* profiling/test invocation *)
  a_stdin : string; (* fed to the console before the run *)
  a_setup : Kernel.Task.kernel -> unit; (* files the app expects *)
  a_expect : string list; (* substrings the output must contain *)
}

let no_setup (_ : Kernel.Task.kernel) = ()

let all : app list =
  [
    {
      a_name = "minish";
      a_paper_name = "bash";
      a_description = "POSIX-ish shell: fork/exec/pipes/signals";
      a_source = App_minish.source;
      a_argv =
        [ "minish"; "-c";
          "echo hello world;loop 2000;write /tmp/f.txt data;cat /tmp/f.txt;echo;pwd;kill-self;echo one two | upcase;sub echo in subshell;status" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "hello world"; "caught SIGINT"; "ONE TWO"; "in subshell" ];
    };
    {
      a_name = "calc";
      a_paper_name = "lua";
      a_description = "scripting-language interpreter (alloc-heavy)";
      a_source = App_calc.source;
      a_argv = [ "calc"; "-e"; "i = 0; s = 0; while i < 50 do s = s + i*i; i = i + 1 end; print s; print >s" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "40425" ];
    };
    {
      a_name = "minidb";
      a_paper_name = "sqlite";
      a_description = "embedded KV database over mmap/mremap/pread";
      a_source = App_minidb.source;
      a_argv = [ "minidb"; "bench"; "150" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "rows=150" ];
    };
    {
      a_name = "kvd";
      a_paper_name = "memcached";
      a_description = "network KV daemon: sockets + mmap slab";
      a_source = App_kvd.source;
      a_argv = [ "kvd"; "bench"; "40" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "kvd: ready"; "ops=80 hits=40"; "kvd: bye" ];
    };
    {
      a_name = "sshd-lite";
      a_paper_name = "openssh";
      a_description = "login daemon: users/sessions/privilege drop";
      a_source = App_misc.sshd;
      a_argv = [ "sshd-lite"; "user" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "session: user=user uid=1000" ];
    };
    {
      a_name = "mk";
      a_paper_name = "make";
      a_description = "build tool: stat mtimes + fork/wait4";
      a_source = App_misc.mk;
      a_argv = [ "mk"; "/tmp/Makefile" ];
      a_stdin = "";
      a_setup =
        (fun k ->
          Kernel.Vfs.write_file k.Kernel.Task.fs "/tmp/Makefile"
            "/tmp/out1:/tmp/dep1:rule-one\n/tmp/out2:/tmp/dep2:rule-two\n";
          Kernel.Vfs.write_file k.Kernel.Task.fs "/tmp/dep1" "d1";
          Kernel.Vfs.write_file k.Kernel.Task.fs "/tmp/dep2" "d2");
      a_expect = [ "built /tmp/out1"; "built 2 of 2" ];
    };
    {
      a_name = "edlite";
      a_paper_name = "vim";
      a_description = "editor: mmap'ed buffer, mremap growth, ioctl";
      a_source = App_misc.edlite;
      a_argv = [ "edlite" ];
      a_stdin = "ahello editor\naline two\np\nw/tmp/ed.out\nq\n";
      a_setup = no_setup;
      a_expect = [ "term 80x24"; "hello editor"; "wrote 22 bytes" ];
    };
    {
      a_name = "mqttc";
      a_paper_name = "paho-mqtt";
      a_description = "pub/sub messaging: sockets + sockopt";
      a_source = App_misc.mqttc;
      a_argv = [ "mqttc"; "12" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "published=12 echoed=12" ];
    };
    {
      a_name = "zpack";
      a_paper_name = "zlib";
      a_description = "compression: pure compute + files";
      a_source = App_misc.zpack;
      a_argv = [ "zpack"; "6" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "ok=1" ];
    };
    {
      a_name = "evloop";
      a_paper_name = "libevent";
      a_description = "event loop: socketpair + poll multiplexing";
      a_source = App_misc.evloop;
      a_argv = [ "evloop" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "2 events" ];
    };
    {
      a_name = "tui";
      a_paper_name = "libncurses";
      a_description = "terminal UI: winsize ioctl + process groups";
      a_source = App_misc.tui;
      a_argv = [ "tui" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "screen 80x24" ];
    };
    {
      a_name = "crypt";
      a_paper_name = "openssl";
      a_description = "stream cipher: getrandom + ioctl";
      a_source = App_misc.crypt;
      a_argv = [ "crypt"; "3" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "pending=100"; "digest=" ];
    };
    {
      a_name = "ltp";
      a_paper_name = "LTP";
      a_description = "syscall conformance harness";
      a_source = App_misc.ltp;
      a_argv = [ "ltp" ];
      a_stdin = "";
      a_setup = no_setup;
      a_expect = [ "0 failed" ];
    };
  ]

let find name = List.find_opt (fun a -> a.a_name = name) all

(** The substrings of [a.a_expect] that the output [out] lacks. *)
let missing_output (a : app) (out : string) : string list =
  let n = String.length out in
  let has sub =
    let k = String.length sub in
    let rec at i = i + k <= n && (String.sub out i k = sub || at (i + 1)) in
    at 0
  in
  List.filter (fun sub -> not (has sub)) a.a_expect

(* Compiled binaries are cached: apps are compiled once per process. *)
let binary_cache : (string, string) Hashtbl.t = Hashtbl.create 16

let binary_of (a : app) : string =
  match Hashtbl.find_opt binary_cache a.a_name with
  | Some b -> b
  | None ->
      let b = Minic.to_wasm_binary a.a_source in
      Hashtbl.replace binary_cache a.a_name b;
      b

(** Boot a kernel the way every suite run starts: [setup] lays down the
    files the program expects, then [stdin] is queued on the console and
    closed (EOF by dropping the writer). *)
let boot ?(setup = no_setup) ?(stdin = "") () : Kernel.Task.kernel =
  let kernel = Kernel.Task.boot () in
  setup kernel;
  if stdin <> "" then begin
    Kernel.Task.console_feed kernel stdin;
    Kernel.Pipe.drop_writer kernel.Kernel.Task.console_in
  end;
  kernel

(** Run an app on the WALI engine; returns (status, output). [policy]
    lets callers run the suite under e.g. a statically derived seccomp
    allowlist (see lib/analysis). *)
let run ?(argv : string list option) ?(env = []) ?trace ?policy ?poll_scheme
    ?observe (a : app) : int * string =
  let binary = binary_of a in
  let kernel = boot ~setup:a.a_setup ~stdin:a.a_stdin () in
  let status, out, _ =
    Wali.Interface.run_program ~kernel ?trace ?policy ?poll_scheme ?observe
      ~binary ~argv:(Option.value argv ~default:a.a_argv) ~env ()
  in
  (status, out)

(* ------------------------------------------------------------------ *)
(* Porting analysis (Table 1)                                           *)
(* ------------------------------------------------------------------ *)

(** Syscall families available under WASI preview1 (names normalized to
    Linux syscalls). The capability model exposes file I/O, clocks and
    randomness — no processes, signals, memory mapping, sockets or
    terminal control. *)
let wasi_supported =
  [
    "read"; "write"; "readv"; "writev"; "pread64"; "pwrite64"; "open";
    "openat"; "close"; "fstat"; "stat"; "lstat"; "newfstatat"; "lseek";
    "getdents64"; "mkdir"; "mkdirat"; "unlink"; "unlinkat"; "rmdir";
    "rename"; "renameat"; "symlink"; "symlinkat"; "readlink"; "readlinkat";
    "link"; "linkat"; "ftruncate"; "fsync"; "fdatasync"; "utimensat";
    "faccessat"; "access"; "clock_gettime"; "clock_getres"; "nanosleep";
    "clock_nanosleep"; "getrandom"; "exit"; "exit_group"; "sched_yield";
    "poll"; "ppoll";
  ]

(** WASIX: WASI plus the POSIX extensions Wasmer added — processes,
    pipes, dup, basic sockets, kill/sigaction-style signals. Still no
    memory mapping, users/groups, process groups, socketpair, ioctl,
    wait4-with-rusage or terminal control. *)
let wasix_supported =
  wasi_supported
  @ [
      "pipe"; "pipe2"; "dup"; "dup2"; "dup3"; "fork"; "vfork"; "execve";
      "kill"; "rt_sigaction"; "rt_sigprocmask"; "getpid"; "getppid";
      "gettid"; "socket"; "bind"; "connect"; "listen"; "accept"; "accept4";
      "sendto"; "recvfrom"; "shutdown"; "getcwd"; "chdir"; "fchdir";
      "futex"; "set_tid_address"; "getuid"; "getgid"; "geteuid"; "getegid";
      "uname"; "select"; "pselect6"; "wait4"; "waitid"; "setsockopt";
      "getsockopt"; "getsockname"; "getpeername"; "thread_spawn";
    ]

type api = Wali_api | Wasix_api | Wasi_api

(** Extract the syscall manifest from a binary's import section — the
    name-bound imports make this a static, ISA-agnostic check (§3.6). *)
let required_syscalls (binary : string) : string list =
  let m = Wasm.Binary.decode binary in
  List.filter_map
    (fun (imp : Wasm.Ast.import) ->
      if imp.Wasm.Ast.imp_module = "wali" then
        let n = imp.Wasm.Ast.imp_name in
        if String.length n > 4 && String.sub n 0 4 = "SYS_" then
          Some (String.sub n 4 (String.length n - 4))
        else Some n (* argv/env methods, thread_spawn *)
      else None)
    m.Wasm.Ast.imports

let non_syscall_methods =
  [ "get_argc"; "get_argv_len"; "copy_argv"; "get_envc"; "get_env_len";
    "copy_env" ]

(* libc wrapper -> underlying syscall, for source-level analysis *)
let wrapper_syscalls =
  [ ("write", "write"); ("read", "read"); ("open", "open"); ("close", "close");
    ("lseek", "lseek"); ("pread", "pread64"); ("pwrite", "pwrite64");
    ("unlink", "unlink"); ("mkdir", "mkdir"); ("rename_file", "rename");
    ("ftruncate", "ftruncate"); ("fsync", "fsync"); ("chdir_to", "chdir");
    ("dup_fd", "dup"); ("dup2", "dup2"); ("pipe", "pipe");
    ("ioctl3", "ioctl"); ("exit", "exit_group"); ("fork", "fork");
    ("getpid", "getpid"); ("getppid", "getppid"); ("waitpid", "wait4");
    ("kill", "kill"); ("execve", "execve"); ("setpgid_self", "setpgid");
    ("sched_yield", "sched_yield"); ("signal", "rt_sigaction");
    ("msleep", "nanosleep"); ("monotime_us", "clock_gettime") ]

(** The syscalls the *application code* itself needs (Table 1's view):
    direct syscall() invocations plus libc wrappers it calls. The libc's
    internal allocator plumbing is excluded — a WASI port swaps the
    allocator, it does not change the application. *)
let app_required_syscalls (a : app) : string list =
  let prog = Minic.parse a.a_source in
  let acc = Hashtbl.create 16 in
  let rec expr (e : Minic.Ast.expr) =
    match e with
    | Minic.Ast.ESyscall (n, args) ->
        Hashtbl.replace acc n ();
        List.iter expr args
    | Minic.Ast.ECall (f, args) ->
        (match List.assoc_opt f wrapper_syscalls with
        | Some sc -> Hashtbl.replace acc sc ()
        | None -> ());
        List.iter expr args
    | Minic.Ast.EBuiltin (("thread_spawn" as b), args) ->
        Hashtbl.replace acc b ();
        List.iter expr args
    | Minic.Ast.EBuiltin (_, args) -> List.iter expr args
    | Minic.Ast.EUnop (_, x) | Minic.Ast.EDeref x | Minic.Ast.ECast (_, x) ->
        expr x
    | Minic.Ast.EBinop (_, x, y)
    | Minic.Ast.EAssign (x, y)
    | Minic.Ast.EIndex (x, y) ->
        expr x;
        expr y
    | Minic.Ast.ECond (x, y, z) ->
        expr x;
        expr y;
        expr z
    | Minic.Ast.EInt _ | Minic.Ast.EStr _ | Minic.Ast.EVar _
    | Minic.Ast.EFnptr _ | Minic.Ast.ESizeof _ ->
        ()
  in
  let rec stmt (st : Minic.Ast.stmt) =
    match st with
    | Minic.Ast.SExpr e -> expr e
    | Minic.Ast.SDecl (_, _, i) -> Option.iter expr i
    | Minic.Ast.SIf (c, t, e) ->
        expr c;
        List.iter stmt t;
        List.iter stmt e
    | Minic.Ast.SWhile (c, b) ->
        expr c;
        List.iter stmt b
    | Minic.Ast.SFor (i, c, sstep, b) ->
        Option.iter stmt i;
        Option.iter expr c;
        Option.iter expr sstep;
        List.iter stmt b
    | Minic.Ast.SReturn e -> Option.iter expr e
    | Minic.Ast.SBreak | Minic.Ast.SContinue -> ()
    | Minic.Ast.SBlock b -> List.iter stmt b
  in
  List.iter
    (function
      | Minic.Ast.GFunc f -> List.iter stmt f.Minic.Ast.fn_body
      | Minic.Ast.GVar _ | Minic.Ast.GArr _ -> ())
    prog;
  Hashtbl.fold (fun k () l -> k :: l) acc []

(** First missing feature of [api] for this app, or None if it ports. *)
let missing_feature (api : api) (a : app) : string option =
  let required = app_required_syscalls a in
  let supported =
    match api with
    | Wali_api -> None (* everything in the spec *)
    | Wasix_api -> Some (wasix_supported @ non_syscall_methods)
    | Wasi_api -> Some (wasi_supported @ non_syscall_methods)
  in
  (* Report the most salient blocker (the paper's Table 1 lists the
     canonical one per app), not an arbitrary import-order artifact. *)
  let salience =
    [ "mremap"; "mmap"; "munmap"; "rt_sigaction"; "kill"; "setuid"; "setsid";
      "setpgid"; "socketpair"; "setsockopt"; "ioctl"; "dup"; "dup2"; "fork";
      "execve"; "wait4"; "pipe"; "socket"; "thread_spawn"; "sysinfo" ]
  in
  let pick = function
    | [] -> None
    | missing -> (
        match List.find_opt (fun s -> List.mem s missing) salience with
        | Some s -> Some s
        | None -> Some (List.hd missing))
  in
  match supported with
  | None ->
      (* WALI: check against the spec's implemented set *)
      pick
        (List.filter
           (fun s ->
             match Wali.Spec.find s with
             | Some e -> not e.Wali.Spec.implemented
             | None -> not (List.mem s ("thread_spawn" :: non_syscall_methods)))
           required)
  | Some set -> pick (List.filter (fun s -> not (List.mem s set)) required)

type porting_row = {
  pr_app : app;
  pr_wali : string option;
  pr_wasix : string option;
  pr_wasi : string option;
}

let porting_table () : porting_row list =
  List.map
    (fun a ->
      {
        pr_app = a;
        pr_wali = missing_feature Wali_api a;
        pr_wasix = missing_feature Wasix_api a;
        pr_wasi = missing_feature Wasi_api a;
      })
    all
