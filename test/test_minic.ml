(* MiniC toolchain tests: compile MiniC sources to Wasm and run them on
   the WALI engine end-to-end. *)

let run ?(argv = [ "prog" ]) ?(env = []) src =
  let binary = Minic.to_wasm_binary src in
  let status, out, _ = Wali.Interface.run_program ~binary ~argv ~env () in
  (status, out)

let check_out ?argv ?env src expected =
  let status, out = run ?argv ?env src in
  Alcotest.(check string) "stdout" expected out;
  Alcotest.(check int) "clean exit" 0 status

let test_hello () =
  check_out {| int main() { print("hello, wali\n"); return 0; } |}
    "hello, wali\n"

let test_arith_and_control () =
  check_out
    {|
      int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
      int main() {
        printi(fib(15));
        printc('\n');
        int acc = 0;
        for (int i = 1; i <= 10; i = i + 1) {
          if (i == 3) { continue; }
          if (i == 9) { break; }
          acc = acc + i;
        }
        printi(acc); printc('\n');
        printi(-42); printc('\n');
        printi(0x10 << 2); printc('\n');
        return 0;
      }
    |}
    "610\n33\n-42\n64\n"

let test_strings_malloc () =
  check_out
    {|
      int main() {
        char *a = strdup("abc");
        char *b = malloc(16);
        strcpy(b, a);
        strcat(b, "def");
        print(b); printc('\n');
        printi(strlen(b)); printc('\n');
        printi(strcmp(b, "abcdef")); printc('\n');
        printi(atoi("  -321x")); printc('\n');
        free(a); free(b);
        // malloc reuse after free
        char *c = malloc(16);
        c[0] = 'R'; c[1] = 0;
        print(c); printc('\n');
        return 0;
      }
    |}
    "abcdef\n6\n0\n-321\nR\n"

let test_globals_arrays () =
  check_out
    {|
      int counter;
      int table[10];
      int main() {
        for (int i = 0; i < 10; i = i + 1) { table[i] = i * i; }
        for (int i = 0; i < 10; i = i + 1) { counter = counter + table[i]; }
        printi(counter); printc('\n');
        return 0;
      }
    |}
    "285\n"

let test_pointer_arith () =
  check_out
    {|
      int main() {
        int *p = (int*)malloc(40);
        for (int i = 0; i < 10; i = i + 1) { *(p + i) = i; }
        int *q = p + 3;
        printi(*q); printc('\n');
        printi(q - p); printc('\n');
        char *c = (char*)p;
        printi((int)(c + 12) == (int)q); printc('\n');
        return 0;
      }
    |}
    "3\n3\n1\n"

let test_file_io () =
  check_out
    {|
      int main() {
        int fd = open("/tmp/t.txt", 0x42 | 0x200, 438); // O_RDWR|O_CREAT|O_TRUNC... flags: O_CREAT=0100=64, O_RDWR=2, O_TRUNC=01000=512
        fd = open("/tmp/u.txt", 66, 438);
        write(fd, "persist", 7);
        close(fd);
        fd = open("/tmp/u.txt", 0, 0);
        char *buf = malloc(32);
        int n = read(fd, buf, 31);
        buf[n] = 0;
        print(buf); printc('\n');
        printi(n); printc('\n');
        close(fd);
        unlink("/tmp/u.txt");
        printi(open("/tmp/u.txt", 0, 0)); printc('\n');  // -1 ENOENT
        printi(errno); printc('\n'); // 2
        return 0;
      }
    |}
    "persist\n7\n-1\n2\n"

let test_fork_pipe () =
  check_out
    {|
      int fds[2];
      int st[1];
      int main() {
        pipe(fds);
        int pid = fork();
        if (pid == 0) {
          close(fds[0]);
          write(fds[1], "from child", 10);
          close(fds[1]);
          exit(0);
        }
        close(fds[1]);
        char *buf = malloc(32);
        int n = read(fds[0], buf, 31);
        buf[n] = 0;
        waitpid(pid, st, 0);
        print(buf); printc('\n');
        return 0;
      }
    |}
    "from child\n"

let test_signals () =
  check_out
    {|
      int got;
      void handler(int sig) { got = sig; }
      int main() {
        signal(10, fnptr(handler));
        kill(getpid(), 10);
        while (!got) { sched_yield(); }
        printi(got); printc('\n');
        return 0;
      }
    |}
    "10\n"

let test_argv () =
  let status, out =
    run
      ~argv:[ "prog"; "alpha"; "beta" ]
      {|
        int main(int argc, char **argv) {
          printi(argc); printc('\n');
          for (int i = 1; i < argc; i = i + 1) { println(argv[i]); }
          return 0;
        }
      |}
  in
  Alcotest.(check string) "argv" "3\nalpha\nbeta\n" out;
  Alcotest.(check int) "status" 0 status

let test_getenv () =
  check_out ~env:[ "HOME=/home/user"; "MODE=fast" ]
    {|
      int main() {
        println(getenv("MODE"));
        println(getenv("HOME"));
        printi((int)getenv("MISSING")); printc('\n');
        return 0;
      }
    |}
    "fast\n/home/user\n0\n"

let test_calli_fnptr () =
  check_out
    {|
      int add(int a, int b) { return a + b; }
      int mul(int a, int b) { return a * b; }
      int apply(int f, int a, int b) { return calli(f, a, b); }
      int main() {
        printi(apply(fnptr(add), 3, 4)); printc('\n');
        printi(apply(fnptr(mul), 3, 4)); printc('\n');
        return 0;
      }
    |}
    "7\n12\n"

let test_threads () =
  check_out
    {|
      int done;
      int total;
      int worker(int arg) {
        total = total + arg;
        done = done + 1;
        return 0;
      }
      int main() {
        thread_spawn(fnptr(worker), 10);
        thread_spawn(fnptr(worker), 32);
        while (done < 2) { sched_yield(); }
        printi(total); printc('\n');
        return 0;
      }
    |}
    "42\n"

let test_exit_status () =
  let status, _ = run {| int main() { exit(9); return 0; } |} in
  Alcotest.(check int) "status" (Kernel.Ktypes.wexit_status 9) status

let test_div_by_zero_traps () =
  let status, _ =
    run {| int main(int argc, char **argv) { return 1 / (argc - 1); } |}
  in
  (* trap -> signal-style death, not a normal exit *)
  Alcotest.(check int) "SIGILL-style status" (Kernel.Ktypes.wsignal_status 4) status

let test_sandbox_oob () =
  (* wild pointer dereference traps instead of corrupting the host *)
  let status, _ =
    run {| int main() { int *p = (int*)0x7fffffff; return *p; } |}
  in
  Alcotest.(check int) "trap status" (Kernel.Ktypes.wsignal_status 4) status

let test_realloc () =
  check_out
    {|
      int main() {
        char *p = malloc(8);
        strcpy(p, "abcdefg");
        p = realloc(p, 64);
        strcat(p, "hijklmn");
        println(p);
        return 0;
      }
    |}
    "abcdefghijklmn\n"

(* malloc's first chunk is mapped at the initial break, so growing the
   break over it must fail and leave the chunk's bytes alone: brk returns
   the old break, as Linux does for a range that overlaps a mapping. *)
let test_brk_keeps_mappings () =
  check_out
    {|
      int main() {
        char *p = malloc(64);
        int i = 0;
        while (i < 64) { p[i] = 120; i = i + 1; }
        int cur = syscall("brk", 0);
        int got = syscall("brk", cur + 5000);
        printi(got == cur); printc(' ');
        printi(p[0]); printc(' ');
        printi(p[63]); printc('\n');
        return 0;
      }
    |}
    "1 120 120\n"

let test_type_errors_rejected () =
  let expect_reject src =
    match Minic.to_wasm_binary src with
    | exception Minic.Ast.Error _ -> ()
    | _ -> Alcotest.fail "type checker accepted bad program"
  in
  expect_reject {| int main() { return undefined_var; } |};
  expect_reject {| int main() { foo(1); return 0; } |};
  expect_reject {| int f(int a) { return a; } int main() { return f(1, 2); } |};
  expect_reject {| int main() { break; return 0; } |};
  expect_reject {| void v() { } int main() { return v() + 1; } |}

let tests =
  [
    Alcotest.test_case "hello world" `Quick test_hello;
    Alcotest.test_case "arith, loops, break/continue" `Quick test_arith_and_control;
    Alcotest.test_case "strings + malloc/free reuse" `Quick test_strings_malloc;
    Alcotest.test_case "globals + arrays" `Quick test_globals_arrays;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arith;
    Alcotest.test_case "file I/O + errno" `Quick test_file_io;
    Alcotest.test_case "fork + pipe" `Quick test_fork_pipe;
    Alcotest.test_case "signal via libc" `Quick test_signals;
    Alcotest.test_case "argv transfer" `Quick test_argv;
    Alcotest.test_case "getenv" `Quick test_getenv;
    Alcotest.test_case "fnptr + calli" `Quick test_calli_fnptr;
    Alcotest.test_case "threads share memory" `Quick test_threads;
    Alcotest.test_case "exit status" `Quick test_exit_status;
    Alcotest.test_case "div-by-zero traps" `Quick test_div_by_zero_traps;
    Alcotest.test_case "sandboxed wild pointer" `Quick test_sandbox_oob;
    Alcotest.test_case "realloc" `Quick test_realloc;
    Alcotest.test_case "type errors rejected" `Quick test_type_errors_rejected;
    Alcotest.test_case "brk never covers a mapping" `Quick test_brk_keeps_mappings;
  ]
