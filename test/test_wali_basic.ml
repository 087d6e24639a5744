(* End-to-end WALI smoke tests with hand-assembled Wasm modules:
   write/exit, fork, signal handler execution, /proc/self/mem
   interposition, seccomp policies. The heavier application-level tests
   live in test_wali_apps.ml and use the MiniC toolchain. *)

open Wasm
open Wasm.Ast
open Wali

let i64t = Types.T_i64
let i32t = Types.T_i32

(* Build a module that imports the given WALI syscalls and runs [body]
   as _start (with [locals]). Returns the encoded binary. *)
let build_wali_module ?(extra = fun (_ : Builder.t) -> ()) ?(pages = 4)
    ~(imports : (string * int) list) ~locals body : string =
  let b = Builder.create ~name:"t" () in
  ignore (Builder.add_memory b ~min:pages ~max:(Some 64));
  let idx =
    List.map
      (fun (name, arity) ->
        ( name,
          Builder.import_func b ~module_:"wali" ~name:("SYS_" ^ name)
            ~params:(List.init arity (fun _ -> i64t))
            ~results:[ i64t ] ))
      imports
  in
  extra b;
  let call name = Call (List.assoc name idx) in
  let start = Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals (body call) in
  Builder.export_func b "_start" start;
  Builder.export_memory b "memory" 0;
  Binary.encode (Builder.build b)

let k n = I64_const (Int64.of_int n)

let run ?policy ?hook ?observe binary =
  Interface.run_program ?policy ?hook ?observe ~binary ~argv:[ "test" ] ~env:[] ()

(* write(1, "hi\n", 3); exit_group(0) *)
let test_hello () =
  let binary =
    build_wali_module
      ~imports:[ ("write", 3); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [
          (* place "hi\n" at address 64 *)
          I32_const 64l; I32_const 0x0A6968l; I32_store { offset = 0; align = 2 };
          k 1; k 64; k 3; call "write"; Drop;
          k 0; call "exit_group"; Drop;
        ])
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "stdout" "hi\n" out;
  Alcotest.(check int) "status" 0 status

let test_exit_code () =
  let binary =
    build_wali_module
      ~imports:[ ("exit_group", 1) ]
      ~locals:[]
      (fun call -> [ k 7; call "exit_group"; Drop ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "status" (Kernel.Ktypes.wexit_status 7) status

(* fork: parent writes P, child writes C, parent waits. *)
let test_fork () =
  let binary =
    build_wali_module
      ~imports:[ ("write", 3); ("fork", 0); ("wait4", 4); ("exit_group", 1) ]
      ~locals:[ i64t ]
      (fun call ->
        [
          I32_const 64l; I32_const (Int32.of_int (Char.code 'C')); I32_store8 { offset = 0; align = 0 };
          I32_const 65l; I32_const (Int32.of_int (Char.code 'P')); I32_store8 { offset = 0; align = 0 };
          call "fork"; Local_set 0;
          Local_get 0; I64_eqz;
          If
            ( Bt_none,
              [ (* child *) k 1; k 64; k 1; call "write"; Drop; k 0; call "exit_group"; Drop ],
              [
                (* parent: wait for child then write P *)
                k (-1); k 0; k 0; k 0; call "wait4"; Drop;
                k 1; k 65; k 1; call "write"; Drop;
              ] );
          k 0; call "exit_group"; Drop;
        ])
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "child before parent" "CP" out;
  Alcotest.(check int) "status" 0 status

(* Signal handler runs: register handler for SIGUSR1 via rt_sigaction,
   kill(self), spin until flag set by handler, write "S". *)
let test_signal_handler () =
  let binary =
    let b = Builder.create ~name:"sig" () in
    ignore (Builder.add_memory b ~min:4 ~max:(Some 64));
    let imp name arity =
      Builder.import_func b ~module_:"wali" ~name:("SYS_" ^ name)
        ~params:(List.init arity (fun _ -> i64t))
        ~results:[ i64t ]
    in
    let sigaction = imp "rt_sigaction" 4 in
    let getpid = imp "getpid" 0 in
    let kill = imp "kill" 2 in
    let write = imp "write" 3 in
    let exit_group = imp "exit_group" 1 in
    ignore (Builder.add_table b ~min:4 ~max:(Some 4));
    (* handler(signo): store 1 at address 128 *)
    let handler =
      Builder.func b ~name:"handler" ~params:[ i32t ] ~results:[] ~locals:[]
        [ I32_const 128l; I32_const 1l; I32_store { offset = 0; align = 2 } ]
    in
    (* table slots 0/1 are reserved: they collide with SIG_DFL/SIG_IGN in
       the sigaction handler field, so the toolchain never places function
       pointers there (documented in Spec). *)
    Builder.add_elem b ~table:0 ~offset:2 [ handler ];
    let start =
      Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[ i64t ]
        [
          (* sigaction struct at 64: handler=2 (table idx), flags=0, mask=0 *)
          I32_const 64l; I32_const 2l; I32_store { offset = 0; align = 2 };
          I32_const 68l; I32_const 0l; I32_store { offset = 0; align = 2 };
          I32_const 72l; I64_const 0L; I64_store { offset = 0; align = 3 };
          k 10 (* SIGUSR1 *); k 64; k 0; k 16; Call sigaction; Drop;
          (* kill(getpid(), SIGUSR1) *)
          Call getpid; k 10; Call kill; Drop;
          (* spin until mem[128] == 1 (handler runs at a loop safepoint) *)
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [
                      I32_const 128l; I32_load { offset = 0; align = 2 };
                      I32_const 1l; I32_relop Eq; Br_if 1; Br 0;
                    ] );
              ] );
          (* write "S" *)
          I32_const 200l; I32_const (Int32.of_int (Char.code 'S'));
          I32_store8 { offset = 0; align = 0 };
          k 1; k 200; k 1; Call write; Drop;
          k 0; Call exit_group; Drop;
        ]
    in
    Builder.export_func b "_start" start;
    Builder.export_memory b "memory" 0;
    Binary.encode (Builder.build b)
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "handler ran" "S" out;
  Alcotest.(check int) "status" 0 status

(* Unhandled SIGUSR1 kills the process with a signal status. *)
let test_default_term () =
  let binary =
    build_wali_module
      ~imports:[ ("getpid", 0); ("kill", 2); ("exit_group", 1) ]
      ~locals:[ i64t; i64t ]
      (fun call ->
        [
          call "getpid"; Local_set 0;
          Local_get 0; k 10; call "kill"; Drop;
          (* spin forever; safepoint delivers the fatal signal *)
          Block (Bt_none, [ Loop (Bt_none, [ Br 0 ]) ]);
          k 0; call "exit_group"; Drop;
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "killed by SIGUSR1" (Kernel.Ktypes.wsignal_status 10) status

(* /proc/self/mem must be refused by the WALI layer (EACCES = -13). *)
let test_proc_self_mem_blocked () =
  let binary =
    build_wali_module
      ~imports:[ ("open", 3); ("exit_group", 1) ]
      ~locals:[ i64t ]
      (fun call ->
        [
          I32_const 64l; I32_const 0x6F72702Fl; I32_store { offset = 0; align = 2 };
          I32_const 68l; I32_const 0x65732F63l; I32_store { offset = 0; align = 2 };
          I32_const 72l; I32_const 0x6D2F666Cl; I32_store { offset = 0; align = 2 };
          I32_const 76l; I32_const 0x006D65l; I32_store { offset = 0; align = 2 };
          k 64; k 0; k 0; call "open";
          (* exit with -(result) so the test can observe the errno *)
          I64_const (-1L); I64_binop Mul; call "exit_group"; Drop;
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "EACCES" (Kernel.Ktypes.wexit_status 13) status

(* seccomp-like dynamic policy: deny getpid with EPERM. *)
let test_seccomp_deny () =
  let binary =
    build_wali_module
      ~imports:[ ("getpid", 0); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [ call "getpid"; I64_const (-1L); I64_binop Mul; call "exit_group"; Drop ])
  in
  let policy = Seccomp.allow_all () in
  Seccomp.deny policy "getpid" ();
  let status, _, _ = run ~policy binary in
  Alcotest.(check int) "EPERM" (Kernel.Ktypes.wexit_status 1) status;
  Alcotest.(check (list (pair string int))) "denial recorded"
    [ ("getpid", 1) ]
    (Seccomp.denied_counts policy)

(* Run [binary] as init with [policy], calling [after_link eng] once the
   module is linked but before the scheduler runs its first instruction. *)
let run_after_link ~policy ~after_link binary =
  let kernel = Kernel.Task.boot () in
  let eng = Engine.create ~policy kernel in
  let status = ref (-1) in
  Fiber.run (fun () ->
      let p = Interface.spawn_init eng ~binary ~argv:[ "t" ] ~env:[] in
      after_link eng;
      eng.Engine.on_proc_exit <- Some (fun q st -> if q == p then status := st));
  !status

(* A guest that exits with -getpid(). *)
let getpid_exit () =
  build_wali_module
    ~imports:[ ("getpid", 0); ("exit_group", 1) ]
    ~locals:[]
    (fun call -> [ call "getpid"; I64_const (-1L); I64_binop Mul; call "exit_group"; Drop ])

(* Each import's verdict is resolved when it is linked; a rule added after
   that must still apply to the very next call. *)
let test_seccomp_after_link () =
  let policy = Seccomp.allow_all () in
  let status =
    run_after_link ~policy (getpid_exit ()) ~after_link:(fun _ ->
        Seccomp.deny policy "getpid" ())
  in
  Alcotest.(check int) "denied after link: EPERM" (Kernel.Ktypes.wexit_status 1) status;
  Alcotest.(check (list (pair string int))) "denial counted" [ ("getpid", 1) ]
    (Seccomp.denied_counts policy);
  let policy = Seccomp.allow_all () in
  let status =
    run_after_link ~policy (getpid_exit ()) ~after_link:(fun _ -> Seccomp.kill_on policy "getpid")
  in
  Alcotest.(check int) "killed after link: SIGSYS"
    (Kernel.Ktypes.wsignal_status Kernel.Ktypes.sigsys)
    status;
  Alcotest.(check (list (pair string int))) "kill counted" [ ("getpid", 1) ]
    (Seccomp.denied_counts policy);
  (* a policy replaced wholesale after link applies too *)
  let policy = Seccomp.allow_all () in
  let status =
    run_after_link ~policy (getpid_exit ()) ~after_link:(fun eng ->
        eng.Engine.policy <- Seccomp.allowlist [ "exit_group" ])
  in
  Alcotest.(check int) "replaced policy: EPERM" (Kernel.Ktypes.wexit_status 1) status

(* A rule added while the guest runs: getpid succeeds, the guest sleeps
   1 ms, a timer denies getpid at 0.5 ms, and the second getpid fails.
   Exit status: 10 if the first call succeeded, plus -(second result). *)
let test_seccomp_mid_run () =
  let binary =
    build_wali_module
      ~imports:[ ("getpid", 0); ("nanosleep", 2); ("exit_group", 1) ]
      ~locals:[ i64t ]
      (fun call ->
        [
          call "getpid"; Local_set 0;
          (* timespec { 0 s, 1_000_000 ns } at 64 *)
          I32_const 64l; I64_const 0L; I64_store { offset = 0; align = 3 };
          I32_const 72l; I64_const 1_000_000L; I64_store { offset = 0; align = 3 };
          k 64; k 0; call "nanosleep"; Drop;
          Local_get 0; k 0; I64_relop Gt_s; I64_extend_i32 ZX; k 10; I64_binop Mul;
          call "getpid"; I64_binop Sub; call "exit_group"; Drop;
        ])
  in
  let policy = Seccomp.allow_all () in
  let status =
    run_after_link ~policy binary ~after_link:(fun _ ->
        Fiber.at 500_000L (fun () -> Seccomp.deny policy "getpid" ()))
  in
  Alcotest.(check int) "first allowed, second denied" (Kernel.Ktypes.wexit_status 11) status;
  Alcotest.(check (list (pair string int))) "one denial" [ ("getpid", 1) ]
    (Seccomp.denied_counts policy)

(* Hostile guest pointers: a buffer or path at 0xFFFFFFF0, 64 bytes long,
   wraps past the end of the 32-bit space. Every call must return -EFAULT
   to the guest (no host exception), on the plain slot path and on the
   boxed path a verbose tracer takes, and count as an error. *)
let test_hostile_pointers () =
  let bad = 0xFFFF_FFF0 in
  let calls =
    [
      ("read", [ 0; bad; 64 ]);
      ("write", [ 1; bad; 64 ]);
      ("pread64", [ 0; bad; 64; 0 ]);
      ("fstat", [ 1; bad ]);
      ("clock_gettime", [ 1; bad ]);
      ("open", [ bad; 0; 0 ]);
      ("getcwd", [ bad; 64 ]);
    ]
  in
  let binary =
    build_wali_module
      ~imports:(List.map (fun (n, a) -> (n, List.length a)) calls @ [ ("exit_group", 1) ])
      ~locals:[]
      (fun call ->
        (* exit with the 1-based index of the first call not given -EFAULT *)
        List.concat
          (List.mapi
             (fun i (n, args) ->
               List.map k args
               @ [
                   call n; k (-14); I64_relop Ne;
                   If (Bt_none, [ k (i + 1); call "exit_group"; Drop ], []);
                 ])
             calls)
        @ [ k 0; call "exit_group"; Drop ])
  in
  List.iter
    (fun verbose ->
      let trace = Strace.create ~verbose () in
      trace.Strace.log <- Some ignore;
      let status, _, _ = Interface.run_program ~trace ~binary ~argv:[ "t" ] ~env:[] () in
      Alcotest.(check int) "every call got -EFAULT" 0 status;
      List.iter
        (fun (n, _) ->
          match Strace.info trace n with
          | Some i ->
              Alcotest.(check (pair int int)) (n ^ " counted once, as an error") (1, 1)
                (i.Strace.i_calls, i.Strace.i_errors)
          | None -> Alcotest.failf "%s not counted" n)
        calls)
    [ false; true ]

(* Every implemented Spec entry, called through the by-name edge on a
   live process with hostile arguments: each value below in every
   position at once, then in one position with the others small and
   valid (1 is a small int and an in-bounds pointer). A call must end in
   a result, a Wasm trap or a process kill, never another host exception.
   Skipped: process control, the calls that wait for a signal, and the
   calls that would never return: the poll family with an infinite
   timeout (its virtual clock ticks on while nothing can wake it) and a
   futex wait with none (the scheduler reports a deadlock). The console
   reads end-of-file, and lengths of the memory-growing calls are capped
   at 1 MiB. *)
let test_hostile_arguments () =
  let values =
    [ -1L; -4096L; 0L; 1L; 0xFFFFFFFFL; 0x7FFFFFFFL; Int64.min_int; Int64.max_int; 0x100000L ]
  in
  let skipped =
    [ "fork"; "vfork"; "clone"; "execve"; "exit"; "exit_group"; "pause"; "rt_sigsuspend" ]
  in
  let lengths = [ ("mmap", [ 1 ]); ("mremap", [ 1; 2 ]); ("brk", [ 0 ]); ("munmap", [ 1 ]); ("sendfile", [ 3 ]) ] in
  let cap name i v =
    match List.assoc_opt name lengths with
    | Some ls when List.mem i ls && Int64.compare v 0x100000L > 0 -> 0x100000L
    | _ -> v
  in
  let never_returns name (a : int64 array) =
    let i j = Int64.to_int a.(j) and p j = Int64.to_int a.(j) land 0xFFFFFFFF in
    match name with
    | "poll" -> i 2 < 0
    | "ppoll" -> p 2 = 0
    | "select" | "pselect6" -> p 4 = 0
    | "futex" -> i 1 land lnot Kernel.Ktypes.futex_private = Kernel.Ktypes.futex_wait && p 3 = 0
    | _ -> false
  in
  let vectors n =
    List.map (fun v -> Array.make n v) values
    @ List.concat
        (List.init n (fun i ->
             List.map (fun v -> Array.init n (fun j -> if i = j then v else 1L)) values))
  in
  let escapes = ref [] in
  List.iter
    (fun (e : Spec.entry) ->
      let name = e.Spec.name in
      if not (List.mem name skipped) then begin
        let kernel = Kernel.Task.boot () in
        Kernel.Pipe.drop_writer kernel.Kernel.Task.console_in;
        let eng = Engine.create kernel in
        Fiber.run (fun () ->
            let p = Interface.spawn_init eng ~binary:(getpid_exit ()) ~argv:[ "t" ] ~env:[] in
            let m = Option.get p.Engine.pr_machine in
            List.iter
              (fun v ->
                let args = Array.mapi (cap name) v in
                (* each call starts from zeroed low memory: a pointer of 1
                   reads zeros (fd 0, a zero timeout). Once the process
                   has exited (its fiber runs while a call waits), its
                   memory is released (0 pages) and every pointer is out
                   of bounds *)
                let mem = Rt.memory0 m in
                if Rt.Memory.size_pages mem > 0 then
                  Rt.Memory.fill mem ~dst:0 ~byte:0 ~len:4096;
                if not (never_returns name args) then
                  match Interface.traced_dispatch eng name m (Array.map (fun a -> Values.I64 a) args) with
                  | Rt.H_return [ Values.I64 _ ] | (exception (Values.Trap _ | Engine.Killed_by _)) -> ()
                  | _ -> escapes := Printf.sprintf "%s: not an i64 result" name :: !escapes
                  | exception ex ->
                      escapes :=
                        Printf.sprintf "%s(%s): %s" name
                          (String.concat ", " (Array.to_list (Array.map Int64.to_string args)))
                          (Printexc.to_string ex)
                        :: !escapes)
              (vectors e.Spec.arity))
      end)
    Spec.implemented;
  match List.rev !escapes with
  | [] -> ()
  | es -> Alcotest.failf "%d host exceptions:\n%s" (List.length es) (String.concat "\n" es)

(* The path calls and their [*at] twins share one handler each, with the
   twin's arguments one slot later: drive every pair through the by-name
   edge, the plain call with absolute paths and the twin relative to a
   directory fd, and check the results and the file system they leave. *)
let test_at_twins () =
  let eng = Engine.create (Kernel.Task.boot ()) in
  let results = ref [] in
  Fiber.run (fun () ->
      let p = Interface.spawn_init eng ~binary:(getpid_exit ()) ~argv:[ "t" ] ~env:[] in
      let m = Option.get p.Engine.pr_machine in
      let mem = Rt.memory0 m in
      let at = ref 1024 in
      let s str =
        let a = !at in
        Rt.Memory.write_string mem ~addr:a (str ^ "\000");
        at := a + 64;
        a
      in
      let call name args =
        match Interface.dispatch eng name m (Array.of_list (List.map (fun v -> Values.I64 (Int64.of_int v)) args)) with
        | Rt.H_return [ Values.I64 r ] -> Int64.to_int r
        | _ -> Alcotest.failf "%s: not a value" name
      in
      let buf = 8192 in
      let mode_of path_call = ignore (path_call ()); Int32.to_int (Rt.Memory.load32 mem (buf + 16)) in
      let ok what r = results := (what, r) :: !results in
      let fdcwd = Kernel.Syscalls.at_fdcwd in
      ok "mkdir" (call "mkdir" [ s "/t"; 0o755 ]);
      ok "close" (call "close" [ call "open" [ s "/t/a"; Kernel.Ktypes.(o_creat lor o_wronly); 0o644 ] ]);
      let d = call "openat" [ fdcwd; s "/t"; Kernel.Ktypes.o_directory; 0 ] in
      ok "openat rel" (min 0 (call "openat" [ d; s "a"; 0; 0 ]));
      ok "access" (call "access" [ s "/t/a"; 0 ]);
      ok "faccessat" (call "faccessat" [ d; s "a"; 0 ]);
      ok "faccessat missing" (call "faccessat" [ d; s "zz"; 0 ]);
      ok "mkdirat" (call "mkdirat" [ d; s "c"; 0o755 ]);
      ok "linkat" (call "linkat" [ d; s "a"; d; s "b" ]);
      ok "link" (call "link" [ s "/t/a"; s "/t/l" ]);
      ok "renameat" (call "renameat" [ d; s "b"; d; s "e" ]);
      ok "rename" (call "rename" [ s "/t/e"; s "/t/b" ]);
      ok "symlinkat" (call "symlinkat" [ s "/t/a"; d; s "y" ]);
      ok "symlink" (call "symlink" [ s "/t/a"; s "/t/z" ]);
      ok "readlinkat" (call "readlinkat" [ d; s "y"; buf; 64 ]);
      ok "readlink" (call "readlink" [ s "/t/z"; buf; 64 ]);
      ok "chmod" (call "chmod" [ s "/t/a"; 0o600 ]);
      ok "fchmodat" (call "fchmodat" [ d; s "a"; 0o640 ]);
      ok "fchownat" (call "fchownat" [ d; s "a"; 5; 6 ]);
      ok "stat mode" (mode_of (fun () -> call "stat" [ s "/t/z"; buf ]));
      ok "stat uid" (Int32.to_int (Rt.Memory.load32 mem (buf + 24)));
      ok "lstat mode" (mode_of (fun () -> call "lstat" [ s "/t/z"; buf ]));
      ok "newfstatat follow" (mode_of (fun () -> call "newfstatat" [ d; s "y"; buf; 0 ]));
      ok "newfstatat nofollow" (mode_of (fun () -> call "newfstatat" [ d; s "y"; buf; 0x100 ]));
      ok "unlinkat" (call "unlinkat" [ d; s "b"; 0 ]);
      ok "unlinkat dir" (call "unlinkat" [ d; s "c"; 0x200 ]);
      ok "unlink" (call "unlink" [ s "/t/l" ]);
      ok "rmdir nonempty" (min 0 (call "rmdir" [ s "/t" ]));
      ok "stat gone" (call "stat" [ s "/t/b"; buf ]));
  let reg = Kernel.Ktypes.s_ifreg and lnk = Kernel.Ktypes.s_iflnk in
  Alcotest.(check (list (pair string int))) "results"
    [
      ("mkdir", 0); ("close", 0); ("openat rel", 0); ("access", 0); ("faccessat", 0);
      ("faccessat missing", -2); ("mkdirat", 0); ("linkat", 0); ("link", 0); ("renameat", 0);
      ("rename", 0); ("symlinkat", 0); ("symlink", 0); ("readlinkat", 4); ("readlink", 4);
      ("chmod", 0); ("fchmodat", 0); ("fchownat", 0); ("stat mode", reg lor 0o640);
      ("stat uid", 5); ("lstat mode", lnk lor 0o777); ("newfstatat follow", reg lor 0o640);
      ("newfstatat nofollow", lnk lor 0o777); ("unlinkat", 0); ("unlinkat dir", 0); ("unlink", 0);
      ("rmdir nonempty", -39); ("stat gone", -2);
    ]
    (List.rev !results)

(* mmap returns page-aligned sandboxed memory that is readable/writable. *)
let test_mmap () =
  let binary =
    build_wali_module
      ~imports:[ ("mmap", 6); ("munmap", 2); ("exit_group", 1) ]
      ~locals:[ i64t ]
      (fun call ->
        [
          (* p = mmap(0, 8192, RW, ANON|PRIVATE, -1, 0) *)
          k 0; k 8192; k 3; k 0x22; k (-1); k 0; call "mmap"; Local_set 0;
          (* store 77 through p *)
          Local_get 0; I32_wrap_i64; I32_const 77l; I32_store { offset = 0; align = 2 };
          (* exit(load p == 77 ? munmap(p,8192) : 1) *)
          Local_get 0; I32_wrap_i64; I32_load { offset = 0; align = 2 };
          I32_const 77l; I32_relop Eq;
          If
            ( Bt_none,
              [ Local_get 0; k 8192; call "munmap"; call "exit_group"; Drop ],
              [ k 1; call "exit_group"; Drop ] );
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "mmap rw ok" 0 status

(* Unknown syscalls resolve as auto-generated stubs returning -ENOSYS. *)
let test_enosys_stub () =
  let binary =
    build_wali_module
      ~imports:[ ("epoll_ctl", 6); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [
          k 0; k 0; k 0; k 0; k 0; k 0; call "epoll_ctl";
          I64_const (-1L); I64_binop Mul; call "exit_group"; Drop;
        ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "ENOSYS" (Kernel.Ktypes.wexit_status 38) status

(* The strace profile records what ran — the Fig 2 data source. *)
let test_strace_counts () =
  let binary =
    build_wali_module
      ~imports:[ ("getpid", 0); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        [
          call "getpid"; Drop; call "getpid"; Drop; call "getpid"; Drop;
          k 0; call "exit_group"; Drop;
        ])
  in
  let trace = Strace.create () in
  let _ = Interface.run_program ~trace ~binary ~argv:[ "t" ] ~env:[] () in
  Alcotest.(check int) "getpid count" 3
    (List.assoc "getpid" (Strace.profile trace));
  Alcotest.(check bool) "exit traced" true
    (List.mem_assoc "exit_group" (Strace.profile trace))

(* exit(7) in a signal handler ends the process there: the interrupted
   code never resumes, so nothing after the kill is printed and the
   process makes one exit_group. *)
let test_exit_in_handler () =
  let binary =
    Minic.to_wasm_binary
      {|
        void on_int(int sig) { print("handler\n"); exit(7); }
        int main(int argc, char **argv) {
          signal(2, fnptr(on_int));
          kill(getpid(), 2);
          print("after kill\n");
          return 0;
        }
      |}
  in
  let trace = Strace.create () in
  let status, out, _ = Interface.run_program ~trace ~binary ~argv:[ "t" ] ~env:[] () in
  Alcotest.(check string) "stdout" "handler\n" out;
  Alcotest.(check int) "status" (Kernel.Ktypes.wexit_status 7) status;
  Alcotest.(check int) "one exit_group" 1
    (List.assoc "exit_group" (Strace.profile trace))

(* ------------------------------------------------------------------ *)
(* Safepoint attention cell                                             *)
(* ------------------------------------------------------------------ *)

(* [n] trips of an i32 countdown loop, each running [trip] (after
   [setup], run once), then exit_group(0). *)
let trips ?extra ?(setup = fun _ -> []) ~imports trip n =
  build_wali_module ?extra ~imports:(imports @ [ ("exit_group", 1) ]) ~locals:[ i32t; i64t ]
    (fun call ->
      setup call
      @ [
          I32_const (Int32.of_int n); Local_set 0;
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [ Local_get 0; I32_eqz; Br_if 1 ]
                    @ trip call
                    @ [ Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0; Br 0 ] );
              ] );
          k 0; call "exit_group"; Drop;
        ])

let countdown = trips ~imports:[] (fun _ -> [])

(* Minor words a trip of [program] allocates: [2n] trips against [n],
   after a run of each (which compiles and caches both). With [observe],
   each run has a fresh sink of that configuration. *)
let words_per_trip ?hook ?observe program n =
  let words binary =
    let w0 = Gc.minor_words () in
    let observe = Option.map Observe.Sink.create observe in
    let status, _, _ = run ?hook ?observe binary in
    Alcotest.(check int) "status" 0 status;
    Gc.minor_words () -. w0
  in
  let short = program n and long = program (2 * n) in
  ignore (words short);
  ignore (words long);
  (words long -. words short) /. float_of_int n

(* Under the engine's poll hook, a loop-header poll with nothing pending
   stays in the interpreter: a trip allocates under one word (a poll that
   leaves the frame boxes the step counters). *)
let test_poll_no_alloc () =
  let per_trip = words_per_trip countdown 20_000 in
  if per_trip >= 1.0 then
    Alcotest.failf "a poll with nothing pending allocates %.2f words per trip" per_trip

(* [countdown n] with a six-argument syscall per trip: futex op 99, which
   is -ENOSYS. *)
let futex_loop =
  trips ~imports:[ ("futex", 6) ] (fun call ->
      [ k 0; k 99; k 0; k 0; k 0; k 0; call "futex"; Drop ])

(* A hooked crossing reads its arguments in place. With a hook that does
   nothing, a trip (one six-argument call, its post-call poll and one
   loop poll, both of which a hooked engine takes) allocates at most 37
   words, what a [Values.value array] of six i64 arguments alone would
   take. The verbose tracer, the recorder and the replayer all take the
   hooked path. *)
let test_hooked_crossing_unboxed () =
  let hooked = words_per_trip ~hook:Engine.nop_hook futex_loop 5_000 in
  if hooked > 37.0 then Alcotest.failf "a hooked trip allocates %.1f words" hooked

(* The plain crossing allocates its 5-word call record and nothing else:
   the result, the registry update and the virtual ns stay unboxed, and
   the step snapshot is not synced. A getpid trip is that record alone;
   a pipe write and read, a pread64 of a file and an lseek add only what
   their kernel paths allocate: each [Ok n], and the pipe-byte tally's
   int64. A sink's cost per getpid trip is pinned too, 5% above what it
   measures (53 words with the metrics pillar, 471 with all three), so
   the observability overhead cannot grow unseen. *)
let test_plain_crossing_alloc () =
  let over = ref [] in
  let pin name bound ?observe program =
    let w = words_per_trip ?observe program 5_000 in
    if w > bound then over := Printf.sprintf "%s %.1f (at most %.0f)" name w bound :: !over
  in
  let getpid = trips ~imports:[ ("getpid", 0) ] (fun call -> [ call "getpid"; Drop ]) in
  pin "getpid" 6.0 getpid;
  pin "getpid, metrics sink" 56.0 ~observe:Observe.Sink.metrics_only getpid;
  pin "getpid, all-on sink" 495.0 ~observe:Observe.Sink.all_on getpid;
  (* fds at 0 and 4, 8 bytes from 64 through the pipe to 128 *)
  let fd a = [ I32_const a; I32_load { offset = 0; align = 2 }; I64_extend_i32 ZX ] in
  pin "pipe write+read" 20.0
    (trips
       ~imports:[ ("pipe", 1); ("write", 3); ("read", 3) ]
       ~setup:(fun call -> [ k 0; call "pipe"; Drop ])
       (fun call ->
         (fd 4l @ [ k 64; k 8; call "write"; Drop ]) @ fd 0l @ [ k 128; k 8; call "read"; Drop ]));
  (* "/tmp/f" at 256; 64 bytes written once, 16 read back per trip *)
  pin "pread64" 7.0
    (trips
       ~extra:(fun b -> Builder.add_data b ~offset:256 "/tmp/f\000")
       ~imports:[ ("open", 3); ("write", 3); ("pread64", 4) ]
       ~setup:(fun call ->
         [ k 256; k Kernel.Ktypes.(o_creat lor o_rdwr); k 0o644; call "open"; Local_set 1;
           Local_get 1; k 0; k 64; call "write"; Drop ])
       (fun call -> [ Local_get 1; k 128; k 16; k 0; call "pread64"; Drop ]));
  pin "lseek" 7.0
    (trips
       ~extra:(fun b -> Builder.add_data b ~offset:256 "/tmp/f\000")
       ~imports:[ ("open", 3); ("lseek", 3) ]
       ~setup:(fun call ->
         [ k 256; k Kernel.Ktypes.(o_creat lor o_rdwr); k 0o644; call "open"; Local_set 1 ])
       (fun call -> [ Local_get 1; k 0; k Kernel.Ktypes.seek_set; call "lseek"; Drop ]));
  if !over <> [] then
    Alcotest.failf "words per plain trip: %s" (String.concat ", " (List.rev !over))

(* getrusage after a 64 KiB anonymous mmap: no CPU time is charged, so
   both timevals are zeros written over 0xFF bytes, and ru_maxrss is the
   task's peak in KiB. The exit code names the first check that fails. *)
let test_getrusage () =
  let m64 = { offset = 0; align = 3 } in
  let at a = I32_const (Int32.of_int a) in
  let binary =
    build_wali_module
      ~imports:[ ("mmap", 6); ("getrusage", 2); ("exit_group", 1) ]
      ~locals:[]
      (fun call ->
        let exit_if code = [ If (Bt_none, [ k code; call "exit_group"; Drop ], []) ] in
        List.concat_map (fun i -> [ at (64 + (8 * i)); I64_const (-1L); I64_store m64 ]) [ 0; 1; 2; 3; 4 ]
        @ [ k 0; k 65536; k 3; k 0x22; k (-1); k 0; call "mmap"; Drop ]
        @ [ k 0; k 64; call "getrusage"; I64_eqz; I32_eqz ] @ exit_if 3
        @ [ at 64; I64_load m64; at 72; I64_load m64; I64_binop Or;
            at 80; I64_load m64; I64_binop Or; at 88; I64_load m64; I64_binop Or;
            I64_eqz; I32_eqz ]
        @ exit_if 1
        @ [ at 96; I64_load m64; k 64; I64_relop Ne ] @ exit_if 2
        @ [ k 0; call "exit_group"; Drop ])
  in
  let status, _, _ = run binary in
  Alcotest.(check int) "zero times, maxrss 64 KiB" 0 status

(* Run [binary] as the initial process of a fresh engine whose "env"
   import [post] runs [post] on the calling process (a host call with no
   poll after it); returns the exit status. *)
let run_with_post ~post binary =
  let kernel = Kernel.Task.boot () in
  let eng = Engine.create kernel in
  let status = ref (-1) in
  let hf_fn m _ =
    post kernel (Engine.proc_of eng m).Engine.pr_task;
    Rt.H_return []
  in
  let hf_type = { Types.params = []; results = [] } in
  let resolver ~module_name ~name =
    if module_name = "env" && name = "post" then
      Some (Rt.E_func (Rt.Host_func { hf_name = "post"; hf_type; hf_fn }))
    else Interface.resolver eng ~module_name ~name
  in
  Fiber.run (fun () ->
      let inst = Engine.build_image eng ~resolver ~binary ~name:"t" in
      let task = Kernel.Task.make_init kernel ~comm:"t" in
      let m = Engine.new_machine eng inst ~task in
      let shared = Engine.make_pshared eng ~inst ~argv:[ "t" ] ~env:[] ~binary in
      let p =
        Interface.start eng task shared m ~fiber:"t"
          ~entry:(Some (Rt.exported_func inst "_start")) ~args:[]
      in
      eng.Engine.on_proc_exit <- Some (fun q st -> if q == p then status := st));
  !status

(* A SIGUSR1 handler records the loop's trip count; [post] makes the
   signal pending after the cell was cleared and before a 5-trip loop
   whose header polls. The process exits with the recorded count (255 if
   the handler never ran): 0 when it ran at the loop's first poll. *)
let test_pending_before_loop () =
  let binary =
    let b = Builder.create ~name:"pend" () in
    ignore (Builder.add_memory b ~min:1 ~max:(Some 1));
    let post = Builder.import_func b ~module_:"env" ~name:"post" ~params:[] ~results:[] in
    let imp name arity =
      Builder.import_func b ~module_:"wali" ~name:("SYS_" ^ name)
        ~params:(List.init arity (fun _ -> i64t)) ~results:[ i64t ]
    in
    let sigaction = imp "rt_sigaction" 4 and exit_group = imp "exit_group" 1 in
    ignore (Builder.add_table b ~min:4 ~max:(Some 4));
    let mem = { offset = 0; align = 2 } in
    (* handler(signo): mem[128] <- mem[136], the trips run so far *)
    let handler =
      Builder.func b ~name:"handler" ~params:[ i32t ] ~results:[] ~locals:[]
        [ I32_const 128l; I32_const 136l; I32_load mem; I32_store mem ]
    in
    Builder.add_elem b ~table:0 ~offset:2 [ handler ];
    let start =
      Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[]
        [
          I32_const 128l; I32_const (-1l); I32_store mem;
          I32_const 64l; I32_const 2l; I32_store mem;
          k 10; k 64; k 0; k 16; Call sigaction; Drop;
          Call post;
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [
                      I32_const 136l; I32_load mem; I32_const 5l; I32_relop Ge_s; Br_if 1;
                      I32_const 136l; I32_const 136l; I32_load mem; I32_const 1l;
                      I32_binop Add; I32_store mem; Br 0;
                    ] );
              ] );
          I32_const 128l; I32_load mem; I64_extend_i32 SX; Call exit_group; Drop;
        ]
    in
    Builder.export_func b "_start" start;
    Builder.export_memory b "memory" 0;
    Binary.encode (Builder.build b)
  in
  List.iter
    (fun (how, post) ->
      Alcotest.(check int) how (Kernel.Ktypes.wexit_status 0) (run_with_post ~post binary))
    [
      ("thread-directed", fun k t -> Kernel.Task.post_to_thread k t 10);
      ("process-directed", fun k t -> Kernel.Task.post_to_group k t.Kernel.Task.group 10);
    ]

(* A SIGUSR1 raised while blocked stays pending through a compute loop,
   and runs its handler as rt_sigprocmask unblocks it. *)
let test_masked_pending () =
  let binary =
    Minic.to_wasm_binary
      {|
        int got;
        char set[8];
        void on_usr1(int sig) { got = got + 1; }
        int main(int argc, char **argv) {
          signal(10, fnptr(on_usr1));
          *(int*)set = 512;
          syscall("rt_sigprocmask", 0, set, 0, 8);
          kill(getpid(), 10);
          int s = 0;
          for (int i = 0; i < 100; i = i + 1) { s = s + i; }
          printi(got);
          syscall("rt_sigprocmask", 1, set, 0, 8);
          printi(got);
          return 0;
        }
      |}
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "held while masked, run at unmask" "01" out;
  Alcotest.(check int) "status" 0 status

(* A fork child polls on its own task's cell: a SIGUSR1 sent to it while
   its parent's cell is clear still ends it at its first poll. *)
let test_fork_child_cell () =
  let binary =
    Minic.to_wasm_binary
      {|
        int st[1];
        int main(int argc, char **argv) {
          int pid = fork();
          if (pid == 0) {
            int s = 0;
            for (int i = 0; i < 100; i = i + 1) { s = s + i; }
            print("child finished\n");
            return 0;
          }
          kill(pid, 10);
          waitpid(pid, st, 0);
          printi(st[0]);
          return 0;
        }
      |}
  in
  let status, out, _ = run binary in
  Alcotest.(check string) "child killed by SIGUSR1"
    (string_of_int (Kernel.Ktypes.wsignal_status 10)) out;
  Alcotest.(check int) "status" 0 status

(* argv/env transfer methods (§3.4). *)
let test_argv_env () =
  let b = Builder.create ~name:"argv" () in
  ignore (Builder.add_memory b ~min:2 ~max:(Some 16));
  let get_argc =
    Builder.import_func b ~module_:"wali" ~name:"get_argc" ~params:[] ~results:[ i32t ]
  in
  let get_argv_len =
    Builder.import_func b ~module_:"wali" ~name:"get_argv_len" ~params:[ i32t ]
      ~results:[ i32t ]
  in
  let copy_argv =
    Builder.import_func b ~module_:"wali" ~name:"copy_argv" ~params:[ i32t; i32t ]
      ~results:[ i32t ]
  in
  let write =
    Builder.import_func b ~module_:"wali" ~name:"SYS_write"
      ~params:[ i64t; i64t; i64t ] ~results:[ i64t ]
  in
  let exit_group =
    Builder.import_func b ~module_:"wali" ~name:"SYS_exit_group"
      ~params:[ i64t ] ~results:[ i64t ]
  in
  let start =
    Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[ i32t ]
      [
        (* copy argv[1] to 256 and write it (len-1, no NUL) *)
        I32_const 256l; I32_const 1l; Call copy_argv; Drop;
        I32_const 1l; Call get_argv_len; I32_const 1l; I32_binop Sub; Local_set 0;
        I64_const 1L; I64_const 256L; Local_get 0; I64_extend_i32 ZX; Call write; Drop;
        (* exit(argc) *)
        Call get_argc; I64_extend_i32 SX; Call exit_group; Drop;
      ]
  in
  Builder.export_func b "_start" start;
  Builder.export_memory b "memory" 0;
  let binary = Binary.encode (Builder.build b) in
  let status, out, _ =
    Interface.run_program ~binary ~argv:[ "prog"; "world" ] ~env:[ "A=1" ] ()
  in
  Alcotest.(check string) "argv[1]" "world" out;
  Alcotest.(check int) "argc" (Kernel.Ktypes.wexit_status 2) status

(* ---- recycled linear memory (DESIGN, "Linear-memory lifetime") ---- *)

(* Run [f] on a domain of its own, whose free list of released memories
   starts empty: the buffers it reuses are the ones it released. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let small_pages = 2
let small_bytes = small_pages * Types.page_size
let m8 = { offset = 0; align = 0 }

(* A guest that forks, and both processes fill all of their memory with
   0xAA and exit: two scribbled buffers, 256 KiB, fill the free list. *)
let scribbler () =
  build_wali_module ~pages:small_pages ~imports:[ ("fork", 0); ("exit_group", 1) ] ~locals:[]
    (fun call ->
      [ call "fork"; Drop;
        I32_const 0l; I32_const 0xAAl; I32_const (Int32.of_int small_bytes); Memory_fill;
        k 0; call "exit_group"; Drop ])

let memory_of (p : Engine.proc) = Rt.memory0 (Option.get p.Engine.pr_machine)

(* The bytes of every process image as it exits, before they are released. *)
let exit_buffers () =
  let bufs = ref [] in
  let hook =
    { Engine.nop_hook with
      h_event =
        (function
        | Engine.Proc_exit (p, _) -> bufs := (memory_of p).Rt.Memory.data :: !bufs
        | _ -> ()) }
  in
  (bufs, hook)

(* A program that scribbles over all of its memory and exits leaves its
   bytes on the free list; the next program of the same size gets them,
   and must read its data segment and zeros everywhere beyond it. *)
let test_recycled_memory_reads_zero () =
  on_fresh_domain (fun () ->
      let released, hook = exit_buffers () in
      let status, _, _ = run ~hook (scribbler ()) in
      Alcotest.(check int) "scribbler" 0 status;
      let seg = "segment" in
      let checker =
        build_wali_module ~pages:small_pages
          ~extra:(fun b -> Builder.add_data b ~offset:0 seg)
          ~imports:[ ("exit_group", 1) ] ~locals:[ i32t ]
          (fun call ->
            let fail code = [ k code; call "exit_group"; Drop ] in
            [ I32_const 0l; I32_load8 (ZX, m8); I32_const (Int32.of_int (Char.code 's'));
              I32_relop Ne; If (Bt_none, fail 2, []);
              I32_const (Int32.of_int (String.length seg)); Local_set 0;
              Block
                ( Bt_none,
                  [ Loop
                      ( Bt_none,
                        [ Local_get 0; I32_const (Int32.of_int small_bytes); I32_relop Ge_u;
                          Br_if 1;
                          Local_get 0; I32_load8 (ZX, m8); If (Bt_none, fail 1, []);
                          Local_get 0; I32_const 1l; I32_binop Add; Local_set 0; Br 0 ] ) ] ) ]
            @ fail 0)
      in
      let reused = ref false in
      let hook =
        { Engine.nop_hook with
          h_event =
            (function
            | Engine.Machine_start m ->
                reused := List.memq (Rt.memory0 m).Rt.Memory.data !released
            | _ -> ()) }
      in
      let status, _, _ = run ~hook checker in
      Alcotest.(check bool) "the scribbled buffer is reused" true !reused;
      Alcotest.(check int) "segment intact, zeros beyond it" 0 status)

(* A fork child's memory, cloned into a recycled buffer, equals its
   parent's at the fork; afterwards each sees only its own stores. *)
let test_recycled_fork_memory () =
  on_fresh_domain (fun () ->
      let released, hook = exit_buffers () in
      (* the scribbled buffers: one for the next image, one for its
         fork child *)
      ignore (run ~hook (scribbler ()));
      let store8 addr c =
        [ I32_const addr; I32_const (Int32.of_int (Char.code c)); I32_store8 m8 ]
      in
      let forker =
        build_wali_module ~pages:small_pages
          ~imports:[ ("write", 3); ("fork", 0); ("wait4", 4); ("exit_group", 1) ]
          ~locals:[ i64t ]
          (fun call ->
            store8 64l 'A' @ store8 65l 'B'
            @ [ call "fork"; Local_set 0; Local_get 0; I64_eqz;
                If
                  ( Bt_none,
                    store8 64l 'C' @ [ k 1; k 64; k 2; call "write"; Drop; k 0; call "exit_group"; Drop ],
                    store8 65l 'P'
                    @ [ k (-1); k 0; k 0; k 0; call "wait4"; Drop; k 1; k 64; k 2; call "write"; Drop ] );
                k 0; call "exit_group"; Drop ])
      in
      let parent = ref None and at_fork = ref [] in
      let hook =
        { Engine.nop_hook with
          h_event =
            (function
            | Engine.Machine_start m -> (
                let mem = Rt.memory0 m in
                match !parent with
                | None -> parent := Some mem
                | Some pm ->
                    at_fork :=
                      [ ("recycled", List.memq mem.Rt.Memory.data !released);
                        ("equal to the parent's",
                          Rt.Memory.size_pages mem = Rt.Memory.size_pages pm
                          && Bytes.equal mem.Rt.Memory.data pm.Rt.Memory.data) ])
            | _ -> ()) }
      in
      let status, out, _ = run ~hook forker in
      Alcotest.(check (list (pair string bool))) "child memory at the fork"
        [ ("recycled", true); ("equal to the parent's", true) ] !at_fork;
      Alcotest.(check string) "child sees CB, parent AP" "CBAP" out;
      Alcotest.(check int) "status" 0 status)

(* Once its group's last thread has exited, a process's memory has 0
   pages: a stale reference to it traps or gets -EFAULT, and never sees
   the bytes a later memory reuses. *)
let test_released_memory () =
  let eng = Engine.create (Kernel.Task.boot ()) in
  let dead = ref None in
  Fiber.run (fun () ->
      dead := Some (Interface.spawn_init eng ~binary:(getpid_exit ()) ~argv:[ "t" ] ~env:[]));
  let m = Option.get (Option.get !dead).Engine.pr_machine in
  let mem = Rt.memory0 m in
  Alcotest.(check int) "pages" 0 (Rt.Memory.size_pages mem);
  Alcotest.check_raises "load" Rt.Memory.Bounds (fun () -> ignore (Rt.Memory.load8_u mem 0));
  Fiber.run (fun () ->
      let live = Interface.spawn_init eng ~binary:(getpid_exit ()) ~argv:[ "u" ] ~env:[] in
      (* a machine on the dead image, charged to a live process *)
      let stale = Rt.Machine.create m.Rt.m_inst in
      stale.Rt.m_pid <- live.Engine.pr_task.Kernel.Task.tid;
      match
        Interface.traced_dispatch eng "read" stale [| Values.I64 0L; Values.I64 16L; Values.I64 8L |]
      with
      | Rt.H_return [ Values.I64 r ] ->
          Alcotest.(check int64) "read into it" (Int64.of_int (-Kernel.Errno.(to_code EFAULT))) r
      | _ -> Alcotest.fail "read: not a value")

(* A boot's kernel buffers (the console's pipe and output buffer), a
   pipe, a socketpair and a machine's first value stack all start under
   the minor heap's 256-word limit, so none is allocated directly in the
   major heap: a pipe's ring grows by use from empty. [Gc.counters]
   counts a direct major allocation at once (OCaml 5.1's
   [Gc.quick_stat] adds it only at the next minor collection), and a
   minor collection meanwhile adds its promoted words to both counts. *)
let test_boot_direct_major () =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  Fiber.run (fun () ->
      let d0 = direct () in
      let k = Kernel.Task.boot () in
      let ctx =
        Kernel.Syscalls.make_ctx k (Kernel.Task.make_init k ~comm:"init") (Kernel.Futex.create ())
      in
      ignore (Kernel.Syscalls.pipe2 ctx ~flags:0);
      ignore (Kernel.Syscalls.socketpair ctx ~family:Kernel.Ktypes.af_unix);
      ignore (Rt.Machine.create Rt.Machine.null_inst);
      Alcotest.(check (float 0.0)) "direct major words" 0.0 (direct () -. d0))

let tests =
  [
    Alcotest.test_case "hello via SYS_write" `Quick test_hello;
    Alcotest.test_case "exit code" `Quick test_exit_code;
    Alcotest.test_case "fork + wait4" `Quick test_fork;
    Alcotest.test_case "async signal handler at safepoint" `Quick test_signal_handler;
    Alcotest.test_case "default disposition terminates" `Quick test_default_term;
    Alcotest.test_case "/proc/self/mem interposed" `Quick test_proc_self_mem_blocked;
    Alcotest.test_case "seccomp-like deny" `Quick test_seccomp_deny;
    Alcotest.test_case "seccomp rule added after link" `Quick test_seccomp_after_link;
    Alcotest.test_case "seccomp rule added mid-run" `Quick test_seccomp_mid_run;
    Alcotest.test_case "hostile pointers get EFAULT" `Quick test_hostile_pointers;
    Alcotest.test_case "hostile arguments at every Spec entry" `Quick test_hostile_arguments;
    Alcotest.test_case "path calls and their *at twins" `Quick test_at_twins;
    Alcotest.test_case "mmap/munmap in linear memory" `Quick test_mmap;
    Alcotest.test_case "ENOSYS passthrough stubs" `Quick test_enosys_stub;
    Alcotest.test_case "strace profile counts" `Quick test_strace_counts;
    Alcotest.test_case "exit in a signal handler" `Quick test_exit_in_handler;
    Alcotest.test_case "argv/env transfer" `Quick test_argv_env;
    Alcotest.test_case "a poll with nothing pending allocates nothing" `Quick
      test_poll_no_alloc;
    Alcotest.test_case "a hooked crossing builds no boxed arguments" `Quick
      test_hooked_crossing_unboxed;
    Alcotest.test_case "a pending signal runs at the first loop-header poll" `Quick
      test_pending_before_loop;
    Alcotest.test_case "a masked pending signal runs when unblocked" `Quick
      test_masked_pending;
    Alcotest.test_case "a fork child polls on its own cell" `Quick test_fork_child_cell;
    Alcotest.test_case "a recycled memory reads as zeros" `Quick test_recycled_memory_reads_zero;
    Alcotest.test_case "a fork child's recycled memory equals its parent's" `Quick
      test_recycled_fork_memory;
    Alcotest.test_case "a released memory has 0 pages and faults" `Quick test_released_memory;
    Alcotest.test_case "a plain crossing allocates only its call record" `Quick
      test_plain_crossing_alloc;
    Alcotest.test_case "getrusage: zero times, a non-zero maxrss" `Quick test_getrusage;
    Alcotest.test_case "boot, pipe, socketpair, machine: 0 direct major words" `Quick
      test_boot_direct_major;
  ]
