(* Record/replay at the thin interface (lib/replay): the trace codec
   (round-trip + error paths), recording determinism, replay convergence
   on real apps, divergence detection on perturbed traces, the reducer's
   semantics preservation, the golden-trace ABI tripwire, and the
   Strace profile/info API satellites. *)

let contains = Astring_contains.contains

(* ---- helpers ---- *)

(* Record a suite app the way the gate and `walirun --app NAME --record`
   do: boot, app setup, scripted stdin with EOF, then the recorded run. *)
let record_app name : Replay.Recorder.run * string =
  match Apps.Suite.find name with
  | None -> Alcotest.failf "no app %s" name
  | Some a -> (Perf.Scenario.record a, Apps.Suite.binary_of a)

let replay_app name trace binary =
  match Apps.Suite.find name with
  | None -> Alcotest.failf "no app %s" name
  | Some a ->
      Replay.Replayer.replay ~setup:a.Apps.Suite.a_setup ~trace ~binary ()

(* Rewrite the first E_syscall named [name] with [f]; returns its index. *)
let perturb_syscall (t : Replay.Trace.t) ~name f : int * Replay.Trace.t =
  let idx = ref (-1) in
  let events =
    Array.mapi
      (fun i ev ->
        match ev with
        | Replay.Trace.E_syscall sc
          when sc.Replay.Trace.sc_name = name && !idx < 0 ->
            idx := i;
            Replay.Trace.E_syscall (f sc)
        | ev -> ev)
      t.Replay.Trace.tr_events
  in
  if !idx < 0 then Alcotest.failf "no %s record in trace" name;
  (!idx, { t with Replay.Trace.tr_events = events })

(* ---- codec: round-trip property ---- *)

let gen_region =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun a s -> Replay.Trace.R_bytes (a, s))
          (int_bound 100_000)
          (string_size (int_bound 40));
        map2
          (fun a n -> Replay.Trace.R_zeros (a, n))
          (int_bound 100_000) (int_bound 5_000);
      ])

let gen_event =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (name, pid, args, result, pages, regions) ->
              Replay.Trace.E_syscall
                {
                  Replay.Trace.sc_pid = pid;
                  sc_name = name;
                  sc_args = Array.of_list args;
                  sc_result = result;
                  sc_pages = pages;
                  sc_regions = regions;
                })
            (tup6
               (oneofl
                  [ "read"; "write"; "mmap"; "openat"; "clock_gettime"; "x" ])
               (int_bound 64)
               (list_size (int_bound 7) int64)
               int64 (int_bound 4096)
               (list_size (int_bound 4) gen_region)) );
        ( 1,
          map
            (fun (pid, poll, signo, status) ->
              Replay.Trace.E_signal
                {
                  Replay.Trace.sg_pid = pid;
                  sg_poll = poll;
                  sg_signo = signo;
                  sg_status = status;
                })
            (tup4 (int_bound 64) (int_bound 100_000) (int_bound 64)
               (option (int_bound 0xffff))) );
        ( 1,
          map2
            (fun pid status ->
              Replay.Trace.E_exit
                { Replay.Trace.ex_pid = pid; ex_status = status })
            (int_bound 64) (int_bound 0xffff) );
      ])

let gen_trace =
  QCheck.Gen.(
    map
      (fun (app, argv, env, seed, poll, events, status) ->
        {
          Replay.Trace.tr_header =
            {
              Replay.Trace.h_app = app;
              h_argv = argv;
              h_env = env;
              h_digest = Digest.string seed;
              h_poll = poll;
            };
          tr_events = Array.of_list events;
          tr_status = status;
        })
      (tup7
         (string_size (int_bound 8))
         (list_size (int_bound 4) (string_size (int_bound 12)))
         (list_size (int_bound 4) (string_size (int_bound 12)))
         (string_size (int_bound 8))
         (oneofl [ "none"; "loops"; "funcs"; "every" ])
         (list_size (int_bound 30) gen_event)
         (int_bound 0xffff)))

let prop_roundtrip =
  QCheck.Test.make ~name:"codec round-trip" ~count:300 (QCheck.make gen_trace)
    (fun t -> Replay.Trace.decode (Replay.Trace.encode t) = t)

(* every strict prefix of an encoding must be rejected, never misparsed *)
let prop_prefixes_rejected =
  QCheck.Test.make ~name:"all truncations raise Corrupt" ~count:60
    (QCheck.make gen_trace) (fun t ->
      let enc = Replay.Trace.encode t in
      let ok = ref true in
      for n = 0 to String.length enc - 1 do
        (match Replay.Trace.decode (String.sub enc 0 n) with
        | _ -> ok := false
        | exception Replay.Trace.Corrupt _ -> ()
        | exception Replay.Trace.Bad_version _ -> ok := false)
      done;
      !ok)

let sample_trace () =
  {
    Replay.Trace.tr_header =
      {
        Replay.Trace.h_app = "t";
        h_argv = [ "t" ];
        h_env = [];
        h_digest = Digest.string "bin";
        h_poll = "loops";
      };
    tr_events =
      [|
        Replay.Trace.E_syscall
          {
            Replay.Trace.sc_pid = 1;
            sc_name = "write";
            sc_args = [| 1L; 64L; 5L |];
            sc_result = 5L;
            sc_pages = 2;
            sc_regions = [ Replay.Trace.R_bytes (64, "hello") ];
          };
        Replay.Trace.E_exit { Replay.Trace.ex_pid = 1; ex_status = 0 };
      |];
    tr_status = 0;
  }

let test_decode_errors () =
  let enc = Replay.Trace.encode (sample_trace ()) in
  (* wrong version: the varint right after the 8-byte magic *)
  let v2 =
    String.sub enc 0 8 ^ "\x02"
    ^ String.sub enc 9 (String.length enc - 9)
  in
  (match Replay.Trace.decode v2 with
  | _ -> Alcotest.fail "version 2 accepted"
  | exception Replay.Trace.Bad_version v ->
      Alcotest.(check int) "reports the version it saw" 2 v);
  (* bad magic *)
  (match Replay.Trace.decode ("XALITRC0" ^ String.sub enc 8 8) with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Replay.Trace.Corrupt msg ->
      Alcotest.(check bool) "names the magic" true (contains msg "magic"));
  (* trailing garbage after a well-formed stream *)
  (match Replay.Trace.decode (enc ^ "x") with
  | _ -> Alcotest.fail "trailing bytes accepted"
  | exception Replay.Trace.Corrupt _ -> ());
  (* truncation in the middle of the event stream *)
  match Replay.Trace.decode (String.sub enc 0 (String.length enc - 3)) with
  | _ -> Alcotest.fail "truncated trace accepted"
  | exception Replay.Trace.Corrupt _ -> ()

(* ---- reducer ---- *)

let apply_regions buf regions =
  List.iter
    (function
      | Replay.Trace.R_bytes (a, s) ->
          Bytes.blit_string s 0 buf a (String.length s)
      | Replay.Trace.R_zeros (a, n) -> Bytes.fill buf a n '\000')
    regions

let prop_reduce_semantics =
  (* reducing a region (zero-run compression) applies identical bytes *)
  let gen =
    QCheck.Gen.(
      pair (int_bound 64)
        (string_size ~gen:(oneofl [ '\000'; '\000'; '\000'; 'a'; 'z' ])
           (int_bound 200)))
  in
  QCheck.Test.make ~name:"reduce preserves applied bytes" ~count:300
    (QCheck.make gen) (fun (addr, s) ->
      let n = addr + String.length s + 8 in
      let a = Bytes.make n 'x' and b = Bytes.make n 'x' in
      apply_regions a [ Replay.Trace.R_bytes (addr, s) ];
      apply_regions b
        (Replay.Reduce.reduce_region (Replay.Trace.R_bytes (addr, s)));
      Bytes.equal a b)

(* ---- record/replay on a real app ---- *)

let test_calc_roundtrip () =
  let r, binary = record_app "calc" in
  let trace = r.Replay.Recorder.r_trace in
  Alcotest.(check bool)
    "recorded some events" true
    (Array.length trace.Replay.Trace.tr_events > 0);
  (* replay the codec round-trip of the reduced trace, like the gate *)
  let reduced = Replay.Reduce.reduce trace in
  Alcotest.(check bool)
    "reduction does not grow the encoding" true
    (Replay.Reduce.byte_size reduced <= Replay.Reduce.byte_size trace);
  let trace' = Replay.Trace.decode (Replay.Trace.encode reduced) in
  let o = replay_app "calc" trace' binary in
  (match o.Replay.Replayer.rp_divergence with
  | None -> ()
  | Some d -> Alcotest.failf "diverged: %s" (Replay.Replayer.pp_divergence d));
  Alcotest.(check int)
    "status matches the recording" r.Replay.Recorder.r_status
    o.Replay.Replayer.rp_status;
  Alcotest.(check int)
    "every record consumed" o.Replay.Replayer.rp_total
    o.Replay.Replayer.rp_consumed

let test_record_deterministic () =
  let r1, _ = record_app "calc" in
  let r2, _ = record_app "calc" in
  Alcotest.(check bool)
    "two recordings encode to identical bytes" true
    (Replay.Trace.encode r1.Replay.Recorder.r_trace
    = Replay.Trace.encode r2.Replay.Recorder.r_trace)

(* ---- the verbose tracer on replay ---- *)

(* A replay takes the same verbose tracer as the recording, through the
   engine's hook, and prints the same strace lines: calc's plain calls,
   and minish's forks, kills and signal handlers. *)
let test_replay_strace_lines () =
  List.iter
    (fun name ->
      let a = Option.get (Apps.Suite.find name) in
      let binary = Apps.Suite.binary_of a in
      let tracer () =
        let lines = ref [] and t = Wali.Strace.create ~verbose:true () in
        t.Wali.Strace.log <- Some (fun l -> lines := l :: !lines);
        (t, lines)
      in
      let t1, recorded = tracer () and t2, replayed = tracer () in
      let r =
        Replay.Recorder.record ~app:name ~strace:t1
          ~kernel:(Apps.Suite.boot ~setup:a.Apps.Suite.a_setup ~stdin:a.Apps.Suite.a_stdin ())
          ~binary ~argv:a.Apps.Suite.a_argv ~env:[] ()
      in
      let o =
        Replay.Replayer.replay ~setup:a.Apps.Suite.a_setup ~strace:t2
          ~trace:r.Replay.Recorder.r_trace ~binary ()
      in
      Alcotest.(check bool) (name ^ " replay converged") true (Replay.Replayer.converged o);
      Alcotest.(check bool) (name ^ " traced its calls") true (List.length !recorded > 10);
      Alcotest.(check (list string)) (name ^ " strace lines") (List.rev !recorded) (List.rev !replayed))
    [ "calc"; "minish" ]

(* Re-injected signal deliveries reach the hook: a sink on a replay of
   minish draws as many signal events (handler begin and end) as on the
   recording. *)
let test_replay_signal_spans () =
  let a = Option.get (Apps.Suite.find "minish") in
  let binary = Apps.Suite.binary_of a in
  let sink () = Observe.Sink.create { Observe.Sink.all_on with c_profile = false } in
  let signal_events o =
    let json = Observe.Sink.trace_json o and pat = {|"cat":"signal"|} in
    let k = String.length pat and n = ref 0 in
    for i = 0 to String.length json - k do
      if String.sub json i k = pat then incr n
    done;
    !n
  in
  let recorded = sink () and replayed = sink () in
  let r =
    Replay.Recorder.record ~app:"minish" ~observe:recorded
      ~kernel:(Apps.Suite.boot ~setup:a.Apps.Suite.a_setup ~stdin:a.Apps.Suite.a_stdin ())
      ~binary ~argv:a.Apps.Suite.a_argv ~env:[] ()
  in
  let o =
    Replay.Replayer.replay ~setup:a.Apps.Suite.a_setup ~observe:replayed
      ~trace:r.Replay.Recorder.r_trace ~binary ()
  in
  Alcotest.(check bool) "replay converged" true (Replay.Replayer.converged o);
  let n = signal_events recorded in
  if n = 0 then Alcotest.fail "the recording delivered no signal";
  Alcotest.(check int) "signal events on replay" n (signal_events replayed)

(* ---- the write-set oracle against ground truth ---- *)

(* Every byte of memory 0 that a call changes lies in its
   [Writeset.written] regions: a test hook snapshots memory and the
   program break at each call's enter and diffs memory at the exit, for
   every suite app and a guest that unmaps the bytes just above its
   break (MiniC's runtime maps its first 64 KiB there, and a break never
   grows over a mapping), writes them and then grows the break over
   them, which zero-fills them. A call
   during which another fiber ran is skipped, since threads share
   memory. Shortening read's region by one byte, pipe's from 8 bytes to
   4, or brk's by a page fails this test. *)
let brk_guest =
  {|
int main(int argc, char **argv) {
  int cur = syscall("brk", 0);
  syscall("munmap", cur, 8192);
  char *p = (char *)cur;
  int i = 0;
  while (i < 8192) { p[i] = 120; i = i + 1; }
  syscall("brk", cur + 8192);
  syscall("brk", cur);
  return p[0];
}
|}

let test_writeset_ground_truth () =
  let switches = ref 0 and last = ref (-1) in
  Fiber.set_observer
    (Some
       {
         Fiber.ob_quantum =
           (fun f _ -> if Fiber.id f <> !last then (incr switches; last := Fiber.id f));
         ob_idle = ignore;
       });
  let misses = ref [] and checked = ref 0 and brks = ref 0 and brk_writes = ref 0 in
  let pre : (int, (Bytes.t * int * int) list) Hashtbl.t = Hashtbl.create 8 in
  let fid () = Fiber.id (Fiber.current ()) in
  (* snapshot buffers are reused: memory sizes rarely change *)
  let pool = ref [] in
  let snapshot data =
    let n = Bytes.length data in
    let b =
      match !pool with
      | b :: rest when Bytes.length b = n -> pool := rest; b
      | _ -> Bytes.create n
    in
    Bytes.blit data 0 b 0 n;
    b
  in
  let hook app =
    {
      Wali.Engine.nop_hook with
      h_enter =
        (fun p m _ ~base:_ ~arity:_ ->
          let stack = Option.value (Hashtbl.find_opt pre (fid ())) ~default:[] in
          let brk = p.Wali.Engine.pr_shared.Wali.Engine.ps_brk in
          Hashtbl.replace pre (fid ())
            ((snapshot (Wasm.Rt.memory0 m).Wasm.Rt.Memory.data, brk, !switches) :: stack);
          None);
      h_exit =
        (fun _ m name ~base ~arity ~ns:_ r ->
          match Hashtbl.find pre (fid ()) with
          | [] -> assert false
          | (before, brk, at) :: rest ->
              Hashtbl.replace pre (fid ()) rest;
              (match r with
              | Some result when at = !switches ->
                  incr checked;
                  if name = "brk" then incr brks;
                  let mem = Wasm.Rt.memory0 m in
                  let after = mem.Wasm.Rt.Memory.data in
                  let args = Array.init arity (Wali.Engine.arg m base) in
                  let spans = Replay.Writeset.written ~mem ~brk name args result in
                  let covered i = List.exists (fun (a, len) -> i >= a && i < a + len) spans in
                  let byte b i = if i < Bytes.length b then Bytes.get b i else '\000' in
                  let n = Bytes.length after in
                  (* memory only grows, in whole pages: compare by words *)
                  let word b i =
                    if i + 8 <= Bytes.length b then Bytes.get_int64_ne b i else 0L
                  in
                  let i = ref (if Bytes.equal before after then n else 0) in
                  if name = "brk" && !i = 0 then incr brk_writes;
                  while !i < n do
                    if not (Int64.equal (word before !i) (word after !i)) then
                      for j = !i to !i + 7 do
                        if byte before j <> byte after j && not (covered j) then
                          misses := Printf.sprintf "%s: %s wrote byte %d" app name j :: !misses
                      done;
                    i := !i + 8
                  done
              | _ -> ());
              pool := before :: !pool);
    }
  in
  Fun.protect
    ~finally:(fun () -> Fiber.set_observer None)
    (fun () ->
      List.iter
        (fun (a : Apps.Suite.app) ->
          let kernel = Apps.Suite.boot ~setup:a.Apps.Suite.a_setup ~stdin:a.Apps.Suite.a_stdin () in
          ignore
            (Wali.Interface.run_program ~kernel ~hook:(hook a.Apps.Suite.a_name)
               ~binary:(Apps.Suite.binary_of a) ~argv:a.Apps.Suite.a_argv ~env:[] ()))
        Apps.Suite.all;
      ignore
        (Wali.Interface.run_program ~hook:(hook "brk guest")
           ~binary:(Minic.to_wasm_binary brk_guest) ~argv:[ "brk" ] ~env:[] ()));
  Alcotest.(check bool) "calls checked" true (!checked > 1000);
  Alcotest.(check int) "brk calls checked" 3 !brks;
  Alcotest.(check int) "brk calls that changed memory" 1 !brk_writes;
  match List.rev !misses with
  | [] -> ()
  | ms ->
      Alcotest.failf "%d bytes outside the write-set, first: %s" (List.length ms)
        (String.concat "; " (List.filteri (fun i _ -> i < 5) ms))

(* ---- divergence detection ---- *)

let test_perturbed_result_detected () =
  let r, binary = record_app "calc" in
  (* flip a result byte on the program's exit_group record *)
  let idx, bad =
    perturb_syscall r.Replay.Recorder.r_trace ~name:"exit_group" (fun sc ->
        {
          sc with
          Replay.Trace.sc_result = Int64.logxor sc.Replay.Trace.sc_result 1L;
        })
  in
  let o = replay_app "calc" bad binary in
  match o.Replay.Replayer.rp_divergence with
  | None -> Alcotest.fail "perturbed trace replayed without divergence"
  | Some d ->
      Alcotest.(check string) "kind" "result" d.Replay.Replayer.d_kind;
      Alcotest.(check int) "index" idx d.Replay.Replayer.d_index;
      let msg = Replay.Replayer.pp_divergence d in
      Alcotest.(check bool)
        "report names the syscall" true
        (contains msg "exit_group");
      Alcotest.(check bool)
        "report carries the record index" true
        (contains msg (Printf.sprintf "#%d" idx))

let test_perturbed_args_detected () =
  let r, binary = record_app "calc" in
  let idx, bad =
    perturb_syscall r.Replay.Recorder.r_trace ~name:"write" (fun sc ->
        let args = Array.copy sc.Replay.Trace.sc_args in
        args.(0) <- Int64.logxor args.(0) 1L;
        { sc with Replay.Trace.sc_args = args })
  in
  let o = replay_app "calc" bad binary in
  match o.Replay.Replayer.rp_divergence with
  | None -> Alcotest.fail "perturbed args replayed without divergence"
  | Some d ->
      Alcotest.(check string) "kind" "args" d.Replay.Replayer.d_kind;
      Alcotest.(check int) "index" idx d.Replay.Replayer.d_index;
      Alcotest.(check bool)
        "report names the syscall" true
        (contains (Replay.Replayer.pp_divergence d) "write")

(* Swapping a fork record with the first record of the child it makes
   asks for an impossible schedule: the child's call before the fork
   that creates it. Every fiber ends up asleep waiting for its turn, so
   the replay stops at the scheduler's deadlock, a "schedule"
   divergence, within a few quanta of the swap. *)
let test_impossible_schedule_detected () =
  let r, binary = record_app "minish" in
  let events = Array.copy r.Replay.Recorder.r_trace.Replay.Trace.tr_events in
  let is_fork_of i =
    match events.(i) with
    | Replay.Trace.E_syscall { sc_name = "fork"; sc_result; _ } ->
        Int64.to_int sc_result = Replay.Trace.pid_of events.(i + 1)
    | _ -> false
  in
  let idx =
    match List.find_opt is_fork_of (List.init (Array.length events - 1) Fun.id) with
    | Some i -> i
    | None -> Alcotest.fail "no fork record followed by its child's"
  in
  let fork = events.(idx) in
  events.(idx) <- events.(idx + 1);
  events.(idx + 1) <- fork;
  let bad = { r.Replay.Recorder.r_trace with Replay.Trace.tr_events = events } in
  let quanta = ref 0 in
  Fiber.set_observer (Some { Fiber.ob_quantum = (fun _ _ -> incr quanta); ob_idle = ignore });
  let o =
    Fun.protect ~finally:(fun () -> Fiber.set_observer None) (fun () ->
        replay_app "minish" bad binary)
  in
  match o.Replay.Replayer.rp_divergence with
  | None -> Alcotest.fail "swapped records replayed without divergence"
  | Some d ->
      Alcotest.(check string) "kind" "schedule" d.Replay.Replayer.d_kind;
      Alcotest.(check int) "index" idx d.Replay.Replayer.d_index;
      Alcotest.(check bool) (Printf.sprintf "%d quanta < 1000" !quanta) true (!quanta < 1000)

let test_wrong_binary_detected () =
  let r, _ = record_app "calc" in
  let other =
    match Apps.Suite.find "zpack" with
    | Some a -> Apps.Suite.binary_of a
    | None -> Alcotest.fail "no zpack app"
  in
  let o =
    Replay.Replayer.replay ~trace:r.Replay.Recorder.r_trace ~binary:other ()
  in
  match o.Replay.Replayer.rp_divergence with
  | Some d ->
      Alcotest.(check string) "kind" "binary digest" d.Replay.Replayer.d_kind
  | None -> Alcotest.fail "digest mismatch not detected"

let test_truncated_trace_detected () =
  let r, binary = record_app "calc" in
  let short = Replay.Reduce.truncate r.Replay.Recorder.r_trace ~n:5 in
  let o = replay_app "calc" short binary in
  Alcotest.(check bool)
    "running past a truncated trace diverges" true
    (o.Replay.Replayer.rp_divergence <> None)

(* ---- golden trace: the ABI-change tripwire ---- *)

(* `dune runtest` runs the binary in test/; `dune exec test/main.exe`
   runs it from wherever it was invoked *)
let golden_file =
  List.find_opt Sys.file_exists
    [ "golden/app_calc.trace"; "test/golden/app_calc.trace" ]
  |> Option.value ~default:"golden/app_calc.trace"

let test_golden_trace () =
  let trace = Replay.Trace.load golden_file in
  let binary =
    match Apps.Suite.find "calc" with
    | Some a -> Apps.Suite.binary_of a
    | None -> Alcotest.fail "no calc app"
  in
  if Digest.string binary <> trace.Replay.Trace.tr_header.Replay.Trace.h_digest
  then
    Alcotest.fail
      "calc compiles to a different image than the golden recording — the \
       compiler or WALI ABI changed; regenerate test/golden/app_calc.trace \
       with `dune exec bin/walirun.exe -- --app calc --record \
       test/golden/app_calc.trace` and review what moved";
  let o = replay_app "calc" trace binary in
  match o.Replay.Replayer.rp_divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf
        "golden trace no longer replays — the syscall surface changed: %s"
        (Replay.Replayer.pp_divergence d)

(* ---- Strace satellites ---- *)

let test_profile_tiebreak () =
  let t = Wali.Strace.create () in
  let hit name result =
    Wali.Strace.note t ~pid:1 ~name ~args:[||] ~result ~ns:10L
  in
  (* equal counts must sort by name, not hashtable order *)
  hit "write" 1L;
  hit "read" 1L;
  hit "close" 1L;
  hit "open" (-2L);
  hit "open" 3L;
  Alcotest.(check (list (pair string int)))
    "count desc, then name asc"
    [ ("open", 2); ("close", 1); ("read", 1); ("write", 1) ]
    (Wali.Strace.profile t);
  (* profile_info orders identically *)
  Alcotest.(check (list string))
    "profile_info same order"
    (List.map fst (Wali.Strace.profile t))
    (List.map fst (Wali.Strace.profile_info t))

let test_strace_info () =
  let t = Wali.Strace.create () in
  Wali.Strace.note t ~pid:1 ~name:"read" ~args:[||] ~result:5L ~ns:100L;
  Wali.Strace.note t ~pid:1 ~name:"read" ~args:[||] ~result:(-9L) ~ns:50L;
  Wali.Strace.note t ~pid:1 ~name:"write" ~args:[||] ~result:1L ~ns:7L;
  (match Wali.Strace.info t "read" with
  | None -> Alcotest.fail "no info for read"
  | Some i ->
      Alcotest.(check int) "calls" 2 i.Wali.Strace.i_calls;
      Alcotest.(check int) "errors" 1 i.Wali.Strace.i_errors;
      Alcotest.(check int64) "ns" 150L i.Wali.Strace.i_ns);
  Alcotest.(check bool) "unknown name" true (Wali.Strace.info t "mmap" = None);
  Alcotest.(check int) "total errors" 1 (Wali.Strace.total_errors t)

let tests =
  [
    Alcotest.test_case "strace profile tie-break" `Quick test_profile_tiebreak;
    Alcotest.test_case "strace info API" `Quick test_strace_info;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_prefixes_rejected;
    Alcotest.test_case "decode error paths" `Quick test_decode_errors;
    QCheck_alcotest.to_alcotest prop_reduce_semantics;
    Alcotest.test_case "record+replay calc converges" `Quick
      test_calc_roundtrip;
    Alcotest.test_case "recording is deterministic" `Quick
      test_record_deterministic;
    Alcotest.test_case "flipped result detected" `Quick
      test_perturbed_result_detected;
    Alcotest.test_case "flipped arg detected" `Quick
      test_perturbed_args_detected;
    Alcotest.test_case "wrong binary detected" `Quick
      test_wrong_binary_detected;
    Alcotest.test_case "truncated trace detected" `Quick
      test_truncated_trace_detected;
    Alcotest.test_case "golden calc trace replays" `Quick test_golden_trace;
    Alcotest.test_case "replay prints the recording's strace lines" `Quick
      test_replay_strace_lines;
    Alcotest.test_case "replayed signals reach the hook" `Quick test_replay_signal_spans;
    Alcotest.test_case "write-set covers every changed byte" `Quick
      test_writeset_ground_truth;
    Alcotest.test_case "impossible schedule detected" `Quick test_impossible_schedule_detected;
  ]
