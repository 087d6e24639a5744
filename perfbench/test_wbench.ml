(* The benchmark's own tests: seeded inputs are reproducible, the oracle
   rejects wrong answers, and the traced run counts exactly what the
   engine's own counters count. *)

open Perfbench

let guest seed = Gen.guest_source (Gen.body ~seed)

let test_same_seed () =
  Alcotest.(check string) "same seed, same guest" (guest 7) (guest 7);
  Alcotest.(check bool) "another seed, another guest" true (guest 7 <> guest 8);
  Alcotest.(check (pair string string))
    "same seed, same calc script" (Gen.calc_script ~seed:3 ~iters:10)
    (Gen.calc_script ~seed:3 ~iters:10)

let test_quotas () =
  let q = Gen.quotas () in
  let calls = List.fold_left (fun acc (f, n) -> acc + (n * f.Gen.f_unit)) 0 q in
  Alcotest.(check int) "body size" Gen.body_calls calls;
  List.iter
    (fun (f, n) ->
      Alcotest.(check bool) (f.Gen.f_name ^ " floor") true (n * f.Gen.f_unit >= Gen.floor_calls))
    q;
  (* every seed draws the same multiset, only order and sizes differ *)
  let kinds seed = List.sort compare (List.map Gen.kind (Gen.body ~seed)) in
  Alcotest.(check (list string)) "seed-independent mix" (kinds 1) (kinds 2);
  List.iter
    (fun (f, n) ->
      Alcotest.(check int) (f.Gen.f_name ^ " draws") n
        (List.length (List.filter (( = ) f.Gen.f_name) (kinds 3))))
    q

let counts_of (jobs : Workloads.job list) =
  List.fold_left
    (fun (i, c) j ->
      let i', c' = Workloads.counts j in
      (i + i', c + c'))
    (0, 0) jobs

(* Traced and untraced runs of the same seed retire the same
   instructions and make the same syscalls, twice over. *)
let test_traced_counts name () =
  let w = Workloads.make name ~seed:5 in
  let jobs = w.Workloads.w_jobs ~iter:0 in
  let acct = Accountant.create () in
  let it1, ok1 = Accountant.run_iteration acct jobs in
  let it2, ok2 = Accountant.run_iteration acct (w.Workloads.w_jobs ~iter:1) in
  Alcotest.(check bool) "traced output correct" true (ok1 && ok2);
  Alcotest.(check bool) "plain output correct" true (List.for_all Workloads.run_plain jobs);
  let instr, calls = counts_of jobs in
  Alcotest.(check int) "instructions match the engine's" instr it1.Accountant.steps;
  Alcotest.(check int) "calls match Strace" calls it1.Accountant.calls;
  Alcotest.(check int) "instructions repeat" it1.Accountant.steps it2.Accountant.steps;
  Alcotest.(check int) "calls repeat" it1.Accountant.calls it2.Accountant.calls;
  let w' = Workloads.make name ~seed:5 in
  Alcotest.(check (pair int int)) "same seed, same counts" (instr, calls)
    (counts_of (w'.Workloads.w_jobs ~iter:0))

let test_oracle () =
  let calls = Gen.body ~seed:4 in
  let w = Workloads.make "syscall" ~seed:4 in
  let job = List.hd (w.Workloads.w_jobs ~iter:0) in
  Alcotest.(check bool) "generated guest passes" true (Workloads.run_plain job);
  let off_by_one =
    { job with Workloads.j_expect = [ Gen.expected_line calls ~trips:(Workloads.syscall_trips + 1) ] }
  in
  Alcotest.(check bool) "wrong sum fails" false (Workloads.run_plain off_by_one);
  let wrong_counts =
    { job with Workloads.j_counts = List.map (fun (k, n) -> (k, n + 1)) job.Workloads.j_counts }
  in
  Alcotest.(check bool) "wrong call count fails" false (Workloads.run_plain wrong_counts)

let test_nonce () =
  let w = Workloads.make "coldstart" ~seed:2 in
  let a = w.Workloads.w_jobs ~iter:0 and b = w.Workloads.w_jobs ~iter:1 in
  List.iter2
    (fun (x : Workloads.job) (y : Workloads.job) ->
      Alcotest.(check bool) (x.Workloads.j_app ^ " new digest") true
        (Digest.string x.Workloads.j_binary <> Digest.string y.Workloads.j_binary);
      Alcotest.(check bool) (x.Workloads.j_app ^ " still runs") true (Workloads.run_plain y))
    a b

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "syscall mix quotas" `Quick test_quotas;
          Alcotest.test_case "output oracle" `Quick test_oracle;
          Alcotest.test_case "coldstart binaries are new" `Quick test_nonce;
          Alcotest.test_case "apps traced counts" `Quick (test_traced_counts "apps");
          Alcotest.test_case "syscall traced counts" `Quick (test_traced_counts "syscall");
          Alcotest.test_case "coldstart traced counts" `Quick (test_traced_counts "coldstart");
        ] );
    ]
