(* WAZI on the Zephyr RTOS simulator (paper §5.1): blinky-style GPIO,
   sleep/timer behaviour on the virtual clock, semaphores across
   instance-per-thread machines, UART, and the auto-generated stub
   behaviour for unvirtualized subsystems. *)

open Wasm
open Wasm.Ast

let i32t = Types.T_i32

let build ~imports ~locals ?(extra = fun (_ : Builder.t) -> ()) body : string =
  let b = Builder.create ~name:"zapp" () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
  let idx =
    List.map
      (fun (name, arity) ->
        ( name,
          Builder.import_func b ~module_:"wazi" ~name
            ~params:(List.init arity (fun _ -> i32t))
            ~results:[ i32t ] ))
      imports
  in
  extra b;
  let call name = Call (List.assoc name idx) in
  let main = Builder.func b ~name:"main" ~params:[] ~results:[ i32t ] ~locals (body call) in
  Builder.export_func b "main" main;
  Builder.export_memory b "memory" 0;
  Binary.encode (Builder.build b)

let k n = I32_const (Int32.of_int n)

let test_blinky () =
  (* configure pin 13 as output; toggle 6 times with 10ms sleeps *)
  let binary =
    build
      ~imports:[ ("gpio_pin_configure", 3); ("gpio_pin_toggle", 2);
                 ("k_sleep", 1); ("uart_poll_out", 2) ]
      ~locals:[ i32t ]
      (fun call ->
        [
          k 1; k 13; k 1; call "gpio_pin_configure"; Drop;
          k 0; Local_set 0;
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [
                      Local_get 0; k 6; I32_relop Ge_s; Br_if 1;
                      k 1; k 13; call "gpio_pin_toggle"; Drop;
                      k 10; call "k_sleep"; Drop;
                      Local_get 0; k 1; I32_binop Add; Local_set 0;
                      Br 0;
                    ] );
              ] );
          k 1; k (Char.code 'B'); call "uart_poll_out"; Drop;
          k 0;
        ])
  in
  let result, t = Wazi.run_module binary in
  (match result with
  | Interp.R_done [ Values.I32 0l ] -> ()
  | Interp.R_trap s -> Alcotest.failf "trap: %s" s
  | _ -> Alcotest.fail "unexpected result");
  let z = t.Wazi.z in
  Alcotest.(check int) "6 gpio edges" 6 (List.length z.Zephyr.Zkernel.gpio_log);
  Alcotest.(check string) "uart" "B" (Zephyr.Zkernel.uart_output z);
  (* virtual time advanced by the sleeps *)
  Alcotest.(check bool) "uptime >= 60ms" true
    (Zephyr.Zkernel.k_uptime_ms () >= 0)

let test_sem_across_threads () =
  (* producer thread gives a semaphore 3 times; main takes 3 times *)
  let binary =
    let b = Builder.create ~name:"zsem" () in
    ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
    let imp name arity =
      Builder.import_func b ~module_:"wazi" ~name
        ~params:(List.init arity (fun _ -> i32t))
        ~results:[ i32t ]
    in
    let sem_init = imp "k_sem_init" 3 in
    let sem_take = imp "k_sem_take" 2 in
    let sem_give = imp "k_sem_give" 1 in
    let sleep = imp "k_sleep" 1 in
    let thread_create = imp "k_thread_create" 2 in
    ignore (Builder.add_table b ~min:4 ~max:(Some 4));
    (* producer(arg = sem handle): give 3 times with sleeps *)
    let producer =
      Builder.func b ~name:"producer" ~params:[ i32t ] ~results:[ i32t ] ~locals:[ i32t ]
        [
          k 0; Local_set 1;
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [
                      Local_get 1; k 3; I32_relop Ge_s; Br_if 1;
                      k 5; Call sleep; Drop;
                      Local_get 0; Call sem_give; Drop;
                      Local_get 1; k 1; I32_binop Add; Local_set 1;
                      Br 0;
                    ] );
              ] );
          k 0;
        ]
    in
    Builder.add_elem b ~table:0 ~offset:2 [ producer ];
    let main =
      Builder.func b ~name:"main" ~params:[] ~results:[ i32t ] ~locals:[ i32t; i32t ]
        [
          k 0; k 0; k 10; Call sem_init; Local_set 0;
          k 2 (* producer table slot *); Local_get 0; Call thread_create; Drop;
          (* take 3 (blocking waits woken by the producer) *)
          k 0; Local_set 1;
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    [
                      Local_get 1; k 3; I32_relop Ge_s; Br_if 1;
                      Local_get 0; k (-1); Call sem_take; Drop;
                      Local_get 1; k 1; I32_binop Add; Local_set 1;
                      Br 0;
                    ] );
              ] );
          Local_get 1;
        ]
    in
    Builder.export_func b "main" main;
    Builder.export_memory b "memory" 0;
    Binary.encode (Builder.build b)
  in
  let result, _ = Wazi.run_module binary in
  match result with
  | Interp.R_done [ Values.I32 3l ] -> ()
  | Interp.R_trap s -> Alcotest.failf "trap: %s" s
  | _ -> Alcotest.fail "semaphore rendezvous failed"

let test_sem_timeout () =
  let binary =
    build
      ~imports:[ ("k_sem_init", 3); ("k_sem_take", 2) ]
      ~locals:[ i32t ]
      (fun call ->
        [
          k 0; k 0; k 1; call "k_sem_init"; Local_set 0;
          Local_get 0; k 5; call "k_sem_take"; (* 5ms timeout, nobody gives *)
        ])
  in
  let result, _ = Wazi.run_module binary in
  match result with
  | Interp.R_done [ Values.I32 v ] ->
      Alcotest.(check bool) "negative (timeout)" true (Int32.compare v 0l < 0)
  | _ -> Alcotest.fail "expected timeout code"

let test_stub_traps () =
  (* a domain-specific subsystem call resolves (auto-generated) but traps *)
  let binary =
    build ~imports:[ ("gnss_call0", 3) ] ~locals:[]
      (fun call -> [ k 0; k 0; k 0; call "gnss_call0" ])
  in
  let result, _ = Wazi.run_module binary in
  match result with
  | Interp.R_trap s ->
      Alcotest.(check bool) "stub message" true
        (Astring_contains.contains s "unimplemented subsystem")
  | _ -> Alcotest.fail "expected stub trap"

(* Nothing feeds the simulated UART, so a poll for input always reads
   Zephyr's "no character waiting". *)
let test_uart_poll_in_empty () =
  let binary =
    build ~imports:[ ("uart_poll_in", 2) ] ~locals:[]
      (fun call -> [ k 1; k 0; call "uart_poll_in" ])
  in
  match fst (Wazi.run_module binary) with
  | Interp.R_done [ Values.I32 v ] -> Alcotest.(check int32) "no input" (-1l) v
  | Interp.R_trap s -> Alcotest.failf "trap: %s" s
  | _ -> Alcotest.fail "unexpected result"

let test_coverage_ratio () =
  (* the §2 scoping claim for Zephyr: the interface only needs a small
     core; the rest is auto-generated *)
  let total = Tables.Zephyr_tables.total_count in
  let impl = Tables.Zephyr_tables.implemented_count in
  Alcotest.(check bool) "total ~520" true (total >= 450 && total <= 650);
  Alcotest.(check bool) "core is a small fraction" true
    (impl * 100 / total < 15)

(* k_malloc's size is a u32 (Zephyr's size_t): a negative one is over
   the limit, so it gets NULL and leaves the heap's use as it was, as do a
   size of 0 and one past the limit. *)
let test_k_malloc_size () =
  let binary =
    build ~imports:[ ("k_malloc", 1) ] ~locals:[] (fun call -> [ k (-4096); call "k_malloc" ])
  in
  let result, t = Wazi.run_module binary in
  (match result with
  | Interp.R_done [ Values.I32 v ] -> Alcotest.(check int32) "k_malloc(-4096)" 0l v
  | Interp.R_trap s -> Alcotest.failf "trap: %s" s
  | _ -> Alcotest.fail "unexpected result");
  let z = t.Wazi.z in
  Alcotest.(check int) "heap_used" 0 z.Zephyr.Zkernel.heap_used;
  Alcotest.(check int) "k_malloc(0)" 0 (Zephyr.Zkernel.k_malloc z 0);
  Alcotest.(check int) "k_malloc(limit + 1)" 0 (Zephyr.Zkernel.k_malloc z 65537);
  Alcotest.(check int) "heap_used after" 0 z.Zephyr.Zkernel.heap_used;
  Alcotest.(check bool) "k_malloc(limit)" true (Zephyr.Zkernel.k_malloc z 65536 <> 0)

let tests =
  [
    Alcotest.test_case "blinky: gpio + sleep + uart" `Quick test_blinky;
    Alcotest.test_case "semaphore across threads" `Quick test_sem_across_threads;
    Alcotest.test_case "k_sem_take timeout" `Quick test_sem_timeout;
    Alcotest.test_case "auto-generated stubs trap" `Quick test_stub_traps;
    Alcotest.test_case "coverage: small core suffices" `Quick test_coverage_ratio;
    Alcotest.test_case "uart_poll_in: nothing received" `Quick test_uart_poll_in_empty;
    Alcotest.test_case "k_malloc reads its size as a u32" `Quick test_k_malloc_size;
  ]
