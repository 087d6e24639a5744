(* Tests for the deterministic fiber scheduler. *)

let test_spawn_order () =
  let log = ref [] in
  Fiber.run (fun () ->
      let push s = log := s :: !log in
      ignore (Fiber.spawn "a" (fun () -> push "a1"; Fiber.yield (); push "a2"));
      ignore (Fiber.spawn "b" (fun () -> push "b1"; Fiber.yield (); push "b2"));
      push "root");
  Alcotest.(check (list string))
    "round robin" [ "root"; "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_suspend_resume () =
  let got = ref 0 in
  Fiber.run (fun () ->
      let resumer = ref None in
      ignore
        (Fiber.spawn "waiter" (fun () ->
             got := Fiber.suspend (fun r -> resumer := Some r)));
      ignore
        (Fiber.spawn "waker" (fun () ->
             match !resumer with Some r -> r 42 | None -> ())));
  Alcotest.(check int) "value passed through resume" 42 !got

let test_resume_once () =
  let count = ref 0 in
  Fiber.run (fun () ->
      let resumer = ref None in
      ignore
        (Fiber.spawn "w" (fun () ->
             ignore (Fiber.suspend (fun r -> resumer := Some r));
             incr count));
      ignore
        (Fiber.spawn "k" (fun () ->
             match !resumer with
             | Some r ->
                 r ();
                 r ();
                 r ()
             | None -> ())));
  Alcotest.(check int) "double resume ignored" 1 !count

let test_virtual_clock () =
  let t0 = ref 0L and t1 = ref 0L in
  Fiber.run (fun () ->
      t0 := Fiber.now ();
      Fiber.sleep_until (Int64.add !t0 1_000_000L);
      t1 := Fiber.now ());
  Alcotest.(check bool) "clock advanced past deadline" true
    (Int64.compare !t1 (Int64.add !t0 1_000_000L) >= 0)

let test_sleep_interleaving () =
  (* Two sleepers wake in deadline order regardless of spawn order. *)
  let log = ref [] in
  Fiber.run (fun () ->
      let base = Fiber.now () in
      ignore
        (Fiber.spawn "late" (fun () ->
             Fiber.sleep_until (Int64.add base 2_000_000L);
             log := "late" :: !log));
      ignore
        (Fiber.spawn "early" (fun () ->
             Fiber.sleep_until (Int64.add base 1_000_000L);
             log := "early" :: !log)));
  Alcotest.(check (list string)) "deadline order" [ "early"; "late" ]
    (List.rev !log)

let test_deadlock_detection () =
  match
    Fiber.run (fun () -> ignore (Fiber.suspend (fun _ -> ())))
  with
  | () -> Alcotest.fail "expected deadlock"
  | exception Fiber.Deadlock names ->
      Alcotest.(check bool) "stuck fiber reported" true (List.mem "root" names)

let test_timeout_pattern () =
  (* The kernel's timed-wait pattern: first of wake/timeout wins. *)
  let result = ref "" in
  Fiber.run (fun () ->
      let resumer = ref None in
      ignore
        (Fiber.spawn "w" (fun () ->
             let r =
               Fiber.suspend (fun resume ->
                   resumer := Some resume;
                   Fiber.at (Int64.add (Fiber.now ()) 500_000L) (fun () ->
                       resume "timeout"))
             in
             result := r));
      (* nobody wakes it: the timer should *)
      ());
  Alcotest.(check string) "timed out" "timeout" !result

let test_many_fibers () =
  let n = 1000 in
  let sum = ref 0 in
  Fiber.run (fun () ->
      for i = 1 to n do
        ignore
          (Fiber.spawn (Printf.sprintf "f%d" i) (fun () ->
               Fiber.yield ();
               sum := !sum + i))
      done);
  Alcotest.(check int) "all fibers ran" (n * (n + 1) / 2) !sum

(* A timer still pending when the last fiber finishes is dropped: the
   clock does not jump to it. *)
let test_leftover_timer_dropped () =
  let idle = ref 0L and fired = ref false in
  Fiber.set_observer
    (Some { Fiber.ob_quantum = (fun _ _ -> ()); ob_idle = (fun d -> idle := Int64.add !idle d) });
  Fun.protect
    ~finally:(fun () -> Fiber.set_observer None)
    (fun () -> Fiber.run (fun () -> Fiber.at 10_000_000_000L (fun () -> fired := true)));
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int64) "no idle jump" 0L !idle

let tests =
  [
    Alcotest.test_case "spawn order round-robin" `Quick test_spawn_order;
    Alcotest.test_case "suspend/resume passes value" `Quick test_suspend_resume;
    Alcotest.test_case "resume is one-shot" `Quick test_resume_once;
    Alcotest.test_case "virtual clock advances" `Quick test_virtual_clock;
    Alcotest.test_case "sleepers wake in deadline order" `Quick test_sleep_interleaving;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "timeout pattern" `Quick test_timeout_pattern;
    Alcotest.test_case "1000 fibers" `Quick test_many_fibers;
    Alcotest.test_case "a leftover timer is dropped" `Quick test_leftover_timer_dropped;
  ]
