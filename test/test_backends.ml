(* Differential testing of the three MiniC backends: the same source must
   behave identically on Wasm+WALI, native closures, and the RV32
   emulator — the compiler-backend-reusability story, checked. *)

let run_wasm ?(argv = [ "prog" ]) ?(env = []) src =
  let binary = Minic.to_wasm_binary src in
  let status, out, _ = Wali.Interface.run_program ~binary ~argv ~env () in
  (status, out)

let run_native ?(argv = [ "prog" ]) ?env src =
  let c = Minic.Mc_native.compile (Minic.parse_with_libc src) in
  let r = Virt.Native_run.run ~argv ?env c in
  (r.Virt.Native_run.r_status, r.Virt.Native_run.r_output)

let run_rv ?(argv = [ "prog" ]) ?env src =
  let img = Minic.Mc_rv.compile (Minic.parse_with_libc src) in
  let r = Virt.Rv_run.run ~argv ?env img in
  (r.Virt.Rv_run.r_status, r.Virt.Rv_run.r_output)

let check_all ?argv ?env src expected =
  let sw, ow = run_wasm ?argv ?env src in
  Alcotest.(check string) "wasm out" expected ow;
  Alcotest.(check int) "wasm status" 0 sw;
  let sn, on = run_native ?argv ?env src in
  Alcotest.(check string) "native out" expected on;
  Alcotest.(check int) "native status" 0 sn;
  let sr, orv = run_rv ?argv ?env src in
  Alcotest.(check string) "rv out" expected orv;
  Alcotest.(check int) "rv status" 0 sr

let test_compute () =
  check_all
    {|
      int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
      int main() {
        printi(fib(14)); printc('\n');
        int x = 0;
        for (int i = 0; i < 100; i = i + 1) { x = x + i * i; }
        printi(x); printc('\n');
        printi(100 / 7); printc('\n');
        printi(100 % 7); printc('\n');
        printi(-100 / 7); printc('\n');
        printi(1 << 20); printc('\n');
        printi(-16 >> 2); printc('\n');
        return 0;
      }
    |}
    "377\n328350\n14\n2\n-14\n1048576\n-4\n"

let test_strings_and_heap () =
  check_all
    {|
      int main() {
        char *buf = malloc(64);
        strcpy(buf, "wali");
        strcat(buf, "/");
        strcat(buf, "wazi");
        println(buf);
        printi(strcmp(buf, "wali/wazi")); printc('\n');
        printi(atoi("12345")); printc('\n');
        char *big = malloc(100000);
        big[99999] = 'Z';
        printi(big[99999]); printc('\n');
        free(big); free(buf);
        return 0;
      }
    |}
    "wali/wazi\n0\n12345\n90\n"

let test_syscalls_files () =
  check_all
    {|
      int main() {
        int fd = open("/tmp/x", 66, 438);
        write(fd, "abcdef", 6);
        lseek(fd, 1, 0);
        char *b = malloc(8);
        int n = read(fd, b, 3);
        b[n] = 0;
        println(b);
        close(fd);
        printi(getpid()); printc('\n');
        return 0;
      }
    |}
    "bcd\n1\n"

(* The argv/env methods are one implementation on every backend: the
   same vectors, and a copy to an address outside memory writes nothing
   and returns the element's size, as WALI's does. *)
let test_argv_across_backends () =
  check_all ~argv:[ "prog"; "x"; "yy" ] ~env:[ "HOME=/h"; "TERM=vt100" ]
    {|
      int main(int argc, char **argv) {
        printi(argv_copy((char*)2147483000, 0)); printc('\n');
        printi(argc); printc('\n');
        for (int i = 0; i < argc; i = i + 1) { println(argv[i]); }
        int n = envc();
        printi(n); printc('\n');
        for (int i = 0; i < n; i = i + 1) {
          char *e = malloc(env_len(i));
          env_copy(e, i);
          println(e);
        }
        printi(argv_len(3)); printc('\n');
        return 0;
      }
    |}
    "5\n3\nprog\nx\nyy\n2\nHOME=/h\nTERM=vt100\n-1\n"

let test_memops () =
  check_all
    {|
      int src[8];
      int dst[8];
      int main() {
        for (int i = 0; i < 8; i = i + 1) { src[i] = i * 3; }
        memcpy((char*)dst, (char*)src, 32);
        int sum = 0;
        for (int i = 0; i < 8; i = i + 1) { sum = sum + dst[i]; }
        printi(sum); printc('\n');
        memset((char*)dst, 0, 32);
        printi(dst[5]); printc('\n');
        return 0;
      }
    |}
    "84\n0\n"

let test_calli_across_backends () =
  check_all
    {|
      int twice(int x) { return x * 2; }
      int thrice(int x) { return x * 3; }
      int main() {
        int f = fnptr(twice);
        int g = fnptr(thrice);
        printi(calli(f, 10) + calli(g, 10)); printc('\n');
        return 0;
      }
    |}
    "50\n"

let test_rv_fork () =
  (* fork works under emulation too (guest state is cloneable) *)
  let status, out =
    run_rv
      {|
        int st[1];
        int main() {
          int pid = fork();
          if (pid == 0) { print("child\n"); exit(0); }
          waitpid(pid, st, 0);
          print("parent\n");
          return 0;
        }
      |}
  in
  Alcotest.(check string) "rv fork" "child\nparent\n" out;
  Alcotest.(check int) "status" 0 status

let test_wrapping_arithmetic () =
  (* i32 overflow behaves identically everywhere *)
  check_all
    {|
      int main() {
        int x = 2147483647;
        x = x + 1;
        printi(x); printc('\n');
        int y = 1;
        for (int i = 0; i < 40; i = i + 1) { y = y * 3; }
        printi(y); printc('\n');
        return 0;
      }
    |}
    "-2147483648\n689956897\n"

(* A signal takes effect when the syscall that raised it returns, on
   every target: a fatal one before the next statement, a caught one by
   running its handler first. RV32 drops caught signals: its function
   pointers are code addresses, and guest handlers are not modelled. *)
let test_signal_on_syscall_return () =
  let term =
    {| int main() { println("a"); kill(getpid(), 15); println("b"); return 0; } |}
  in
  List.iter
    (fun (target, run) ->
      let status, out = run term in
      Alcotest.(check int) (target ^ " SIGTERM status") 15 status;
      Alcotest.(check string) (target ^ " SIGTERM output") "a\n" out)
    [ ("wasm", fun s -> run_wasm s); ("native", fun s -> run_native s);
      ("rv", fun s -> run_rv s) ];
  let usr1 =
    {|
      int hits;
      void on_usr1(int sig) { hits = hits + 1; }
      int main() {
        signal(10, fnptr(on_usr1));
        kill(getpid(), 10);
        printi(hits);
        return 0;
      }
    |}
  in
  Alcotest.(check (pair int string)) "wasm SIGUSR1 caught" (0, "1") (run_wasm usr1);
  Alcotest.(check (pair int string)) "native SIGUSR1 caught" (0, "1") (run_native usr1);
  Alcotest.(check (pair int string)) "rv SIGUSR1 dropped" (0, "0") (run_rv usr1)

(* QCheck: random MiniC programs must print the same output and exit
   with the same status through the Wasm engine and the native closure
   backend. The native backend shares no code with the interpreter's
   loop, so it is an independent oracle for it, unlike fused = unfused.
   Programs mix for and while loops, a leaf call, a call that loops over
   it, a bounded recursion, stores to a global array, and / and % with
   divisors kept in 1..16 (no trap, no INT_MIN / -1). *)
let prop_wasm_matches_native =
  let open QCheck.Gen in
  let rec expr ~calls vars d =
    let leaf = oneof [ map string_of_int (int_bound 99); oneofl vars ] in
    if d = 0 then leaf
    else
      let sub = expr ~calls vars (d - 1) in
      let bin ops =
        let* a = sub and* b = sub and* o = oneofl ops in
        return (Printf.sprintf "(%s %s %s)" a o b)
      in
      frequency
        ([
           (2, leaf);
           (4, bin [ "+"; "-"; "*"; "&"; "|"; "^"; "<"; "=="; "!="; ">="; "<=" ]);
           ( 2,
             let* a = sub and* b = sub and* o = oneofl [ "/"; "%" ] in
             return (Printf.sprintf "(%s %s ((%s & 15) + 1))" a o b) );
           ( 1,
             let* a = sub and* b = sub and* o = oneofl [ "<<"; ">>" ] in
             return (Printf.sprintf "(%s %s (%s & 31))" a o b) );
           (1, map (Printf.sprintf "g[(%s) & 15]") sub);
         ]
        @
        if calls then
          [
            ( 1,
              let* a = sub and* b = sub in
              return (Printf.sprintf "f0(%s, %s)" a b) );
          ]
        else [])
  in
  let e vars = expr ~calls:true vars 2 in
  let rec stmts ~nested n =
    list_repeat n (stmt ~nested) >|= String.concat "\n"
  and stmt ~nested =
    let vars = [ "x"; "y"; "i"; "j" ] in
    let e = e vars in
    frequency
      ([
         (3, let* v = oneofl [ "x"; "y" ] and* r = e in
             return (Printf.sprintf "%s = %s;" v r));
         (2, let* k = e and* r = e in
             return (Printf.sprintf "g[(%s) & 15] = %s;" k r));
         (1, let* a = e and* b = e in
             return (Printf.sprintf "x = x + f1(%s, %s);" a b));
         (1, let* a = e and* b = e in
             return (Printf.sprintf "y = y + rec(%s & 7, %s);" a b));
       ]
      @
      if nested then []
      else
        [
          ( 1,
            let* c = e and* t = stmts ~nested:true 2 and* f = stmts ~nested:true 1 in
            return (Printf.sprintf "if (%s) {\n%s\n} else {\n%s\n}" c t f) );
          ( 1,
            let* k = int_range 1 4 and* b = stmts ~nested:true 2 in
            return
              (Printf.sprintf "j = 0;\nwhile (j < %d) {\n%s\nj = j + 1;\n}" k b) );
        ])
  in
  let program =
    let leaf_expr vars = expr ~calls:false vars 2 in
    let* t = leaf_expr [ "a"; "b" ]
    and* st = leaf_expr [ "a"; "b"; "t" ]
    and* r0 = leaf_expr [ "a"; "b"; "t" ]
    and* r1 = e [ "a"; "b"; "s" ]
    and* rr = e [ "a"; "n" ]
    and* x0 = int_bound 50
    and* y0 = int_bound 50
    and* trips = int_range 1 8
    and* body = int_range 1 5 >>= stmts ~nested:false in
    return
      (Printf.sprintf
         {|int g[16];
int f0(int a, int b) { int t = %s; g[a & 15] = %s; return %s; }
int f1(int a, int b) {
  int s = 0; int k = 0;
  while (k < (a & 3)) { s = s + f0(s, b + k); k = k + 1; }
  return s + %s;
}
int rec(int n, int a) { if (n <= 0) { return a; } return rec(n - 1, %s) + (a & 3); }
int main() {
  int x = %d; int y = %d; int i = 0; int j = 0;
  for (i = 0; i < %d; i = i + 1) {
%s
  }
  printi(x); printc(' '); printi(y); printc('\n');
  for (i = 0; i < 16; i = i + 1) { printi(g[i]); printc(' '); }
  printc('\n');
  return (x ^ y) & 127;
}
|}
         t st r0 r1 rr x0 y0 trips body)
  in
  QCheck.Test.make ~name:"random MiniC programs: wasm = native" ~count:40
    (QCheck.make ~print:Fun.id program) (fun src ->
      let wasm = run_wasm src and native = run_native src in
      wasm = native
      || QCheck.Test.fail_reportf "wasm (%d) %S\nnative (%d) %S" (fst wasm)
           (snd wasm) (fst native) (snd native))

(* A bad pointer is -EFAULT on every target: the native and RV32 runners
   cross through the same bridge as the Wasm engine's handlers. *)
let test_efault_across_backends () =
  check_all
    {|
      int main() {
        printi(syscall("write", 1, -16, 8)); printc('\n');
        printi(syscall("read", 0, -16, 8)); printc('\n');
        return 0;
      }
    |}
    "-14\n-14\n"

(* A fork child keeps its parent's mappings and brk: its own mmaps land
   past them, so the parent's malloc chunk and mapping survive in the
   child, on RV32 as on Wasm. *)
let test_fork_keeps_mappings () =
  let src =
    {|
      int st[1];
      int main() {
        char *m = malloc(16);
        m[0] = 'm';
        char *a = (char*)syscall("mmap", 0, 4096, 3, 34, -1, 0);
        a[0] = 'x';
        int pid = fork();
        if (pid == 0) {
          char *b = (char*)syscall("mmap", 0, 4096, 3, 34, -1, 0);
          char *c = (char*)syscall("mmap", 0, 4096, 3, 34, -1, 0);
          printc(m[0]); printc(a[0]); printc(' ');
          printi(b[0]); printi(c[0]); printc('\n');
          exit(0);
        }
        waitpid(pid, st, 0);
        return 0;
      }
    |}
  in
  Alcotest.(check (pair int string)) "wasm" (0, "mx 00\n") (run_wasm src);
  Alcotest.(check (pair int string)) "rv" (0, "mx 00\n") (run_rv src)

let tests =
  [
    Alcotest.test_case "compute kernels agree" `Quick test_compute;
    Alcotest.test_case "strings + heap agree" `Quick test_strings_and_heap;
    Alcotest.test_case "file syscalls agree" `Quick test_syscalls_files;
    Alcotest.test_case "argv agrees" `Quick test_argv_across_backends;
    Alcotest.test_case "memcpy/memset agree" `Quick test_memops;
    Alcotest.test_case "calli agrees" `Quick test_calli_across_backends;
    Alcotest.test_case "fork under RV emulation" `Quick test_rv_fork;
    Alcotest.test_case "i32 wrapping agrees" `Quick test_wrapping_arithmetic;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
      prop_wasm_matches_native;
    Alcotest.test_case "signals take effect on syscall return" `Quick
      test_signal_on_syscall_return;
    Alcotest.test_case "a bad pointer is -EFAULT everywhere" `Quick
      test_efault_across_backends;
    Alcotest.test_case "an RV fork child keeps its mappings" `Quick
      test_fork_keeps_mappings;
  ]
