(* The static syscall-reachability analyzer (lib/analysis): import
   classification, call-graph reachability, derived minimal allowlists,
   lint diagnostics, the Seccomp rule-order semantics the analyzer
   relies on, and the dynamic soundness cross-check on a hand-built
   module. The whole suite runs under its derived policies in the suite
   gate (Perf.Gate, `dune build @gate`). *)

open Wasm
open Wasm.Ast

let i64t = Types.T_i64
let i32t = Types.T_i32
let k n = I64_const (Int64.of_int n)

let imp b name arity =
  Builder.import_func b ~module_:"wali" ~name:("SYS_" ^ name)
    ~params:(List.init arity (fun _ -> i64t))
    ~results:[ i64t ]

(* _start -> helper -> SYS_write; SYS_exit_group called from _start.
   SYS_getpid is imported but never called anywhere; SYS_kill is called
   only from a function no root reaches. *)
let direct_module () =
  let b = Builder.create ~name:"direct" () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
  let write = imp b "write" 3 in
  let exit_group = imp b "exit_group" 1 in
  let _getpid = imp b "getpid" 0 in
  let kill = imp b "kill" 2 in
  let helper =
    Builder.func b ~name:"helper" ~params:[] ~results:[] ~locals:[]
      [
        I32_const 64l; I32_const 0x0A6968l; I32_store { offset = 0; align = 2 };
        k 1; k 64; k 3; Call write; Drop;
      ]
  in
  let _dead =
    Builder.func b ~name:"dead" ~params:[] ~results:[] ~locals:[]
      [ k 1; k 9; Call kill; Drop ]
  in
  let start =
    Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[]
      [ Call helper; k 0; Call exit_group; Drop ]
  in
  Builder.export_func b "_start" start;
  Builder.export_memory b "memory" 0;
  Builder.build b

(* Export "go" dispatches call_indirect over type []->(); the table
   holds f_a (that type, calls SYS_getpid), f_b (type (i64)->(), calls
   SYS_write, matches no call_indirect and no host callback shape) and
   f_h (the (i32)->() signal-handler shape, calls SYS_tkill). *)
let indirect_module () =
  let b = Builder.create ~name:"indirect" () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
  let getpid = imp b "getpid" 0 in
  let write = imp b "write" 3 in
  let tkill = imp b "tkill" 2 in
  let exit_group = imp b "exit_group" 1 in
  ignore (Builder.add_table b ~min:8 ~max:(Some 8));
  let f_a =
    Builder.func b ~name:"f_a" ~params:[] ~results:[] ~locals:[]
      [ Call getpid; Drop ]
  in
  let f_b =
    Builder.func b ~name:"f_b" ~params:[ i64t ] ~results:[] ~locals:[]
      [ k 1; k 64; k 1; Call write; Drop ]
  in
  let f_h =
    Builder.func b ~name:"f_h" ~params:[ i32t ] ~results:[] ~locals:[]
      [ k 1; k 2; Call tkill; Drop ]
  in
  Builder.add_elem b ~table:0 ~offset:2 [ f_a; f_b; f_h ];
  let ti_a = Builder.type_idx b ~params:[] ~results:[] in
  let go =
    Builder.func b ~name:"go" ~params:[] ~results:[] ~locals:[]
      [ I32_const 2l; Call_indirect (ti_a, 0); k 0; Call exit_group; Drop ]
  in
  Builder.export_func b "go" go;
  Builder.export_memory b "memory" 0;
  Builder.build b

let strs = Alcotest.(list string)

(* Direct calls: exact reachability, dead code excluded from the
   allowlist, per-export sets. *)
let test_direct_reachability () =
  let s = Analysis.Reach.analyze (direct_module ()) in
  Alcotest.(check strs) "allowlist" [ "exit_group"; "write" ]
    (Analysis.Reach.allowlist s);
  Alcotest.(check strs) "_start set" [ "exit_group"; "write" ]
    (List.assoc "_start" s.Analysis.Reach.s_per_export);
  Alcotest.(check strs) "nothing indirect-only" []
    s.Analysis.Reach.s_indirect_only

(* Lints on the direct module: the dead function is flagged; getpid is
   an unused import; kill has a call site (in dead code) so it is not
   "unused", but it must still stay out of the allowlist. *)
let test_direct_lints () =
  let s = Analysis.Reach.analyze (direct_module ()) in
  let lints = Analysis.Lint.lint s in
  let dead =
    List.exists
      (function Analysis.Lint.Dead_func (_, n) -> n = "dead" | _ -> false)
      lints
  in
  let unused =
    List.filter_map
      (function Analysis.Lint.Unused_import (_, n) -> Some n | _ -> None)
      lints
  in
  Alcotest.(check bool) "dead func flagged" true dead;
  Alcotest.(check strs) "only getpid unused" [ "SYS_getpid" ] unused;
  Alcotest.(check bool) "kill not allowed" false
    (List.mem "kill" (Analysis.Reach.allowlist s))

(* call_indirect over-approximation: the export's own set follows
   type-compatible table entries only, but every table entry is a
   module-level root (the engine can invoke handlers/thread entries
   through the table), so the whole-module allowlist includes them all —
   flagged as indirect-only. *)
let test_indirect_overapprox () =
  let s = Analysis.Reach.analyze (indirect_module ()) in
  Alcotest.(check strs) "module allowlist"
    [ "exit_group"; "getpid"; "tkill"; "write" ]
    (Analysis.Reach.allowlist s);
  Alcotest.(check strs) "go reaches type-compatible targets only"
    [ "exit_group"; "getpid" ]
    (List.assoc "go" s.Analysis.Reach.s_per_export);
  Alcotest.(check strs) "indirect-only syscalls"
    [ "getpid"; "tkill"; "write" ]
    s.Analysis.Reach.s_indirect_only;
  let lints = Analysis.Lint.lint s in
  let uncallable =
    List.filter_map
      (function Analysis.Lint.Uncallable_elem (_, n) -> Some n | _ -> None)
      lints
  in
  (* f_b matches no call_indirect type and no host callback shape; f_h
     is the (i32)->() handler shape the host can invoke, so only f_b. *)
  Alcotest.(check strs) "uncallable table entries" [ "f_b" ] uncallable;
  Alcotest.(check bool) "no dead funcs (table entries are roots)" false
    (List.exists
       (function Analysis.Lint.Dead_func _ -> true | _ -> false)
       lints)

(* Import classification partitions the manifest. *)
let test_classify () =
  let b = Builder.create ~name:"cls" () in
  let _ = imp b "read" 3 in
  let _ =
    Builder.import_func b ~module_:"wali" ~name:"get_argc" ~params:[]
      ~results:[ i32t ]
  in
  let _ =
    Builder.import_func b ~module_:"wasi_snapshot_preview1" ~name:"fd_write"
      ~params:[ i32t; i32t; i32t; i32t ] ~results:[ i32t ]
  in
  let _ =
    Builder.import_func b ~module_:"env" ~name:"mystery" ~params:[]
      ~results:[]
  in
  let kinds =
    List.map (fun (_, _, ki) -> ki) (Analysis.Classify.func_imports (Builder.build b))
  in
  match kinds with
  | [
   Analysis.Classify.Syscall "read";
   Analysis.Classify.Env_helper "get_argc";
   Analysis.Classify.Wasi_call "fd_write";
   Analysis.Classify.Host_other ("env", "mystery");
  ] ->
      ()
  | _ -> Alcotest.fail "classification mismatch"

(* Regression: rule resolution must let the most recently added rule
   win. The historical bug resolved the *first* added rule. *)
let test_seccomp_rule_order () =
  let open Wali.Seccomp in
  let is v name p =
    Alcotest.(check bool)
      (Printf.sprintf "%s verdict" name)
      true
      (match (check p name, v) with
      | Allow, `Allow | Deny _, `Deny | Kill, `Kill -> true
      | _ -> false)
  in
  let p = allowlist [ "read"; "write" ] in
  is `Allow "read" p;
  is `Deny "fork" p (* default-deny for names outside the allowlist *);
  deny p "write" ();
  is `Deny "write" p (* deny overrides the earlier allowlist entry *);
  allow p "write";
  is `Allow "write" p (* re-allow overrides the deny *);
  kill_on p "write";
  is `Kill "write" p;
  let q = allow_all () in
  is `Allow "anything" q;
  deny q "getpid" ();
  is `Deny "getpid" q;
  allow q "getpid";
  is `Allow "getpid" q

(* Running the hand-built module under its own derived policy: zero
   denials, dynamic profile inside the static set, output intact. *)
let test_crosscheck_builder_module () =
  let binary = Binary.encode (direct_module ()) in
  let r = Analysis.Crosscheck.run_binary ~name:"direct" binary in
  let v = r.Analysis.Crosscheck.cc_verdict in
  Alcotest.(check bool) "sound" true (Analysis.Crosscheck.ok v);
  Alcotest.(check strs) "no escapes" [] v.Analysis.Crosscheck.cc_escaped;
  Alcotest.(check (list (pair string int))) "no denials" []
    v.Analysis.Crosscheck.cc_denied;
  Alcotest.(check string) "output" "hi\n" r.Analysis.Crosscheck.cc_output;
  Alcotest.(check strs) "dynamic = static here"
    [ "exit_group"; "write" ] v.Analysis.Crosscheck.cc_dynamic

let tests =
  [
    Alcotest.test_case "direct-call reachability" `Quick test_direct_reachability;
    Alcotest.test_case "dead code + unused imports" `Quick test_direct_lints;
    Alcotest.test_case "call_indirect over-approximation" `Quick
      test_indirect_overapprox;
    Alcotest.test_case "import classification" `Quick test_classify;
    Alcotest.test_case "seccomp: latest rule wins" `Quick test_seccomp_rule_order;
    Alcotest.test_case "crosscheck: builder module" `Quick
      test_crosscheck_builder_module;
  ]
