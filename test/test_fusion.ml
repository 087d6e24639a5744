(* Differential tests for the macro-op fusion pass and the kernel lookup
   caches: the fused engine must be observationally identical to plain
   single-op dispatch — same results, same instruction counts, same
   syscall traces — and the VFS dentry cache must never serve a stale
   entry across a namespace mutation. *)

open Wasm
open Wasm.Ast

(* Build a single-function module and run it under both engines,
   returning (result, steps, fused dispatches) for each. *)
let run_both ?(params = []) ?(results = [ Types.T_i32 ]) ?(locals = [])
    ?(mem = false) body args =
  let run fuse =
    let b = Builder.create ~name:"t" () in
    if mem then ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
    let f = Builder.func b ~name:"f" ~params ~results ~locals body in
    Builder.export_func b "f" f;
    let cm = Code.compile_module ~fuse (Builder.build b) in
    let inst, _ = Link.instantiate Link.empty_resolver cm in
    let mach = Rt.Machine.create inst in
    let r = Interp.invoke mach (Rt.exported_func inst "f") args in
    (r, mach.Rt.steps, mach.Rt.fused)
  in
  (run true, run false)

let check_same ?params ?results ?locals ?mem body args =
  let (r_f, s_f, fused), (r_u, s_u, u_fused) =
    run_both ?params ?results ?locals ?mem body args
  in
  (match (r_f, r_u) with
  | Interp.R_done a, Interp.R_done b ->
      Alcotest.(check (list string))
        "results"
        (List.map Values.to_string b)
        (List.map Values.to_string a)
  | Interp.R_trap a, Interp.R_trap b -> Alcotest.(check string) "trap" b a
  | _ -> Alcotest.fail "fused and unfused runs diverged in outcome");
  Alcotest.(check int64) "steps" s_u s_f;
  Alcotest.(check int64) "unfused engine dispatches no superops" 0L u_fused;
  fused

(* Each hot idiom the fuser targets, spelled the way the front ends emit
   it; every case must also execute at least one superinstruction, or the
   pattern silently stopped matching. *)
let test_idioms () =
  let fusing name body args =
    let fused = check_same ~params:[ Types.T_i32; Types.T_i32 ] ~mem:true body args in
    if fused = 0L then Alcotest.failf "%s: no superinstruction dispatched" name
  in
  fusing "ll_binop" [ Local_get 0; Local_get 1; I32_binop Add ]
    [ Values.I32 3l; Values.I32 4l ];
  fusing "lc_binop_set"
    [ Local_get 0; I32_const 5l; I32_binop Mul; Local_set 1; Local_get 1 ]
    [ Values.I32 7l; Values.I32 0l ];
  fusing "binop_binop"
    [ Local_get 0; Local_get 1; Local_get 0; I32_binop Xor; I32_binop Add ]
    [ Values.I32 9l; Values.I32 12l ];
  fusing "binop_load + l_store"
    [
      I32_const 8l; Local_get 0; I32_store { offset = 0; align = 2 };
      I32_const 4l; I32_const 4l; I32_binop Add; I32_load { offset = 0; align = 2 };
    ]
    [ Values.I32 77l; Values.I32 0l ];
  fusing "binop_store"
    [
      I32_const 16l; Local_get 0; Local_get 1; I32_binop Add;
      I32_store { offset = 0; align = 2 };
      I32_const 16l; I32_load { offset = 0; align = 2 };
    ]
    [ Values.I32 30l; Values.I32 12l ];
  fusing "eqz_eqz" [ Local_get 0; I32_eqz; I32_eqz ]
    [ Values.I32 42l; Values.I32 0l ];
  fusing "set_get"
    [ Local_get 0; I32_const 1l; I32_binop Add; Local_set 1; Local_get 1 ]
    [ Values.I32 5l; Values.I32 0l ];
  (* minicc's fall-through conditional: relop; eqz; br_if *)
  fusing "relop_eqz_br_if (loop)"
    [
      Block
        ( Bt_none,
          [
            Loop
              ( Bt_none,
                [
                  Local_get 0; I32_const 0l; I32_relop Gt_s; I32_eqz; Br_if 1;
                  Local_get 1; Local_get 0; I32_binop Add; Local_set 1;
                  Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0;
                  Br 0;
                ] );
          ] );
      Local_get 1;
    ]
    [ Values.I32 10l; Values.I32 0l ];
  fusing "eqz_br_if"
    [
      Block (Bt_none, [ Local_get 0; I32_eqz; Br_if 0; I32_const 1l; Local_set 1 ]);
      Local_get 1;
    ]
    [ Values.I32 1l; Values.I32 0l ]

(* Division stays precise under fusion: traps carry the same message and
   the same instruction count (div never fuses as an interior op). *)
let test_div_trap_parity () =
  ignore
    (check_same ~params:[ Types.T_i32; Types.T_i32 ]
       [ Local_get 0; Local_get 1; I32_binop Div_s ]
       [ Values.I32 7l; Values.I32 0l ]);
  ignore
    (check_same ~params:[ Types.T_i32; Types.T_i32 ]
       [ Local_get 0; Local_get 1; I32_binop Div_s; Local_set 0; Local_get 0 ]
       [ Values.I32 7l; Values.I32 0l ])

(* Fusion keeps branch targets intact when a jump lands *between* ops
   that would otherwise form a window: the loop back-edge target below
   sits inside a local_get/local_get/binop triple. *)
let test_branch_into_window () =
  ignore
    (check_same ~params:[ Types.T_i32; Types.T_i32 ]
       [
         Block
           ( Bt_none,
             [
               Loop
                 ( Bt_none,
                   [
                     Local_get 0; I32_eqz; Br_if 1;
                     Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0;
                     Local_get 1; I32_const 3l; I32_binop Add; Local_set 1;
                     Br 0;
                   ] );
             ] );
         Local_get 1;
       ]
       [ Values.I32 6l; Values.I32 0l ])

(* Compile-time coverage stats: the pass must report fewer ops after
   fusion and name the sites it rewrote. *)
let test_fusion_stats () =
  let b = Builder.create ~name:"t" () in
  let f =
    Builder.func b ~name:"f" ~params:[ Types.T_i32; Types.T_i32 ]
      ~results:[ Types.T_i32 ] ~locals:[]
      [ Local_get 0; Local_get 1; I32_binop Add; Local_set 0; Local_get 0 ]
  in
  Builder.export_func b "f" f;
  let cm = Code.compile_module ~fuse:true (Builder.build b) in
  let fs = cm.Code.cm_fuse in
  if fs.Code.fs_ops_after >= fs.Code.fs_ops_before then
    Alcotest.fail "fusion did not shrink the op stream";
  if not (List.mem_assoc "ll_i32_binop_set" fs.Code.fs_sites) then
    Alcotest.fail "ll_i32_binop_set site not reported";
  let cm0 = Code.compile_module ~fuse:false (Builder.build b) in
  Alcotest.(check (list (pair string int)))
    "unfused compile reports no sites" [] cm0.Code.cm_fuse.Code.fs_sites

(* QCheck: random straight-line programs, generated as stack-disciplined
   fragments so loads/stores stay in bounds, must behave identically
   fused and unfused — same value, same instruction count. *)
let prop_differential =
  let fragment_gen depth =
    (* (instrs, net stack effect); only fragments legal at [depth] *)
    QCheck.Gen.(
      let local = int_bound 3 in
      let cst = map Int32.of_int (int_bound 1000) in
      let binop =
        oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; Shr_u; Shr_s; Rotl ]
      in
      let relop = oneofl [ Eq; Ne; Lt_s; Lt_u; Gt_s; Ge_u; Le_s ] in
      let push =
        [
          map (fun i -> ([ Local_get i ], 1)) local;
          map (fun c -> ([ I32_const c ], 1)) cst;
          map (fun a -> ([ I32_const (Int32.of_int a);
                           I32_load { offset = 0; align = 2 } ], 1))
            (int_bound 200);
          map2 (fun a i -> ([ I32_const (Int32.of_int a); Local_get i;
                              I32_store { offset = 0; align = 2 } ], 0))
            (int_bound 200) local;
        ]
      in
      let one =
        [
          return ([ I32_eqz ], 0);
          map (fun i -> ([ Local_set i ], -1)) local;
          map (fun i -> ([ Local_tee i ], 0)) local;
          map2 (fun c o -> ([ I32_const c; I32_binop o ], 0)) cst binop;
          return ([ Drop ], -1);
        ]
      in
      let two =
        [
          map (fun o -> ([ I32_binop o ], -1)) binop;
          map (fun o -> ([ I32_relop o ], -1)) relop;
        ]
      in
      oneof
        (push @ (if depth >= 1 then one else []) @ (if depth >= 2 then two else [])))
  in
  let program_gen =
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let rec go k depth acc =
        if k = 0 then
          (* settle the stack at exactly one value *)
          let drops = List.init depth (fun _ -> Drop) in
          return (List.rev acc @ drops @ [ I32_const 1l ])
        else
          let* frag, eff = fragment_gen depth in
          go (k - 1) (depth + eff) (List.rev_append frag acc)
      in
      go n 0 [])
  in
  QCheck.Test.make ~name:"random programs: fused = unfused" ~count:300
    (QCheck.make program_gen) (fun body ->
      let (r_f, s_f, _), (r_u, s_u, _) =
        run_both ~params:[]
          ~locals:[ Types.T_i32; Types.T_i32; Types.T_i32; Types.T_i32 ]
          ~mem:true body []
      in
      r_f = r_u && s_f = s_u)

(* ---- kernel lookup caches ---- *)

let dir_of fs path =
  match Kernel.Vfs.resolve fs ~cwd:fs.Kernel.Vfs.root path with
  | Ok i -> i
  | Error _ -> Alcotest.failf "cannot resolve %s" path

let test_dcache_invalidation () =
  let stats = Observe.Metrics.kstats_create () in
  let fs = Kernel.Vfs.create ~stats () in
  ignore (Kernel.Vfs.mkdir_p fs "/d");
  Kernel.Vfs.write_file fs "/d/f" "hello";
  let root = fs.Kernel.Vfs.root in
  let resolve p = Kernel.Vfs.resolve fs ~cwd:root p in
  (* repeat lookups hit the cache and return the same inode *)
  let i1 = dir_of fs "/d/f" in
  let hits0 = stats.Observe.Metrics.dcache_hits in
  let i2 = dir_of fs "/d/f" in
  if not (i1 == i2) then Alcotest.fail "cache returned a different inode";
  if stats.Observe.Metrics.dcache_hits <= hits0 then
    Alcotest.fail "repeat lookup did not hit the dentry cache";
  let d = dir_of fs "/d" in
  (* rename invalidates *)
  (match Kernel.Vfs.rename fs d "f" d "g" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rename failed");
  (match resolve "/d/f" with
  | Error Kernel.Errno.ENOENT -> ()
  | _ -> Alcotest.fail "stale /d/f served after rename");
  (match resolve "/d/g" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "/d/g missing after rename");
  (* unlink invalidates *)
  (match Kernel.Vfs.unlink fs d "g" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unlink failed");
  (match resolve "/d/g" with
  | Error Kernel.Errno.ENOENT -> ()
  | _ -> Alcotest.fail "stale /d/g served after unlink");
  (* rmdir invalidates *)
  (match Kernel.Vfs.rmdir fs root "d" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rmdir failed");
  match resolve "/d" with
  | Error Kernel.Errno.ENOENT -> ()
  | _ -> Alcotest.fail "stale /d served after rmdir"

let test_fdtab_memo () =
  let fs = Kernel.Vfs.create () in
  Kernel.Vfs.write_file fs "/f" "x";
  let t = Kernel.Fdtab.create () in
  let ino = dir_of fs "/f" in
  let d () = Kernel.Fdtab.mk_desc ~path:"/f" (Kernel.Fdtab.F_inode ino) in
  let fd =
    match Kernel.Fdtab.install t (d ()) with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "install failed"
  in
  (* repeated gets (memo path) agree with the slot array *)
  (match (Kernel.Fdtab.get t fd, Kernel.Fdtab.get t fd) with
  | Some a, Some b when a == b -> ()
  | _ -> Alcotest.fail "memoized get returned a different description");
  (match Kernel.Fdtab.close t fd with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "close failed");
  (match Kernel.Fdtab.get t fd with
  | None -> ()
  | Some _ -> Alcotest.fail "memo served a closed fd");
  (* clone must not share the memo with the parent *)
  let fd2 =
    match Kernel.Fdtab.install t (d ()) with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "reinstall failed"
  in
  let t2 = Kernel.Fdtab.clone t in
  (match Kernel.Fdtab.close t2 fd2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "clone close failed");
  match Kernel.Fdtab.get t fd2 with
  | Some _ -> ()
  | None -> Alcotest.fail "closing in the clone leaked into the parent"

(* Fork under fusion: cloning a machine mid-run deep-copies the frame
   array, so parent and child diverge without sharing locals or memory. *)
let test_clone_under_fusion () =
  let b = Builder.create () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 2));
  let f =
    Builder.func b ~name:"poke" ~params:[ Types.T_i32 ] ~results:[] ~locals:[]
      [ I32_const 0l; Local_get 0; I32_store { offset = 0; align = 2 } ]
  in
  let g =
    Builder.func b ~name:"peek" ~params:[] ~results:[ Types.T_i32 ] ~locals:[]
      [ I32_const 0l; I32_load { offset = 0; align = 2 } ]
  in
  Builder.export_func b "poke" f;
  Builder.export_func b "peek" g;
  let cm = Code.compile_module ~fuse:true (Builder.build b) in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  let m1 = Rt.Machine.create inst in
  ignore (Interp.invoke m1 (Rt.exported_func inst "poke") [ Values.I32 111l ]);
  let m2 = Rt.Machine.clone m1 in
  ignore
    (Interp.invoke m2 (Rt.exported_func m2.Rt.m_inst "poke") [ Values.I32 222l ]);
  (match Interp.invoke m1 (Rt.exported_func m1.Rt.m_inst "peek") [] with
  | Interp.R_done [ Values.I32 111l ] -> ()
  | _ -> Alcotest.fail "parent memory dirtied by fused clone");
  match Interp.invoke m2 (Rt.exported_func m2.Rt.m_inst "peek") [] with
  | Interp.R_done [ Values.I32 222l ] -> ()
  | _ -> Alcotest.fail "clone memory wrong under fusion"

(* End-to-end: recording the calc app fused and unfused produces
   byte-identical syscall traces (`waliperf gate` enforces this for the
   whole suite; this is the in-tree witness). *)
let test_calc_trace_identical () =
  let record fuse =
    match Apps.Suite.find "calc" with
    | None -> Alcotest.fail "no calc app"
    | Some a ->
        let kernel = Kernel.Task.boot () in
        a.Apps.Suite.a_setup kernel;
        if a.Apps.Suite.a_stdin <> "" then begin
          Kernel.Task.console_feed kernel a.Apps.Suite.a_stdin;
          Kernel.Pipe.drop_writer kernel.Kernel.Task.console_in
        end;
        let r =
          Replay.Recorder.record ~app:"calc" ~fuse ~kernel
            ~binary:(Apps.Suite.binary_of a) ~argv:a.Apps.Suite.a_argv ~env:[]
            ()
        in
        Replay.Trace.encode (Replay.Reduce.reduce r.Replay.Recorder.r_trace)
  in
  let fused = record true and unfused = record false in
  Alcotest.(check int)
    "trace sizes" (String.length unfused) (String.length fused);
  Alcotest.(check bool) "traces byte-identical" true (String.equal fused unfused)

let tests =
  [
    Alcotest.test_case "hot idioms fuse and agree" `Quick test_idioms;
    Alcotest.test_case "div trap parity" `Quick test_div_trap_parity;
    Alcotest.test_case "branch into fusion window" `Quick test_branch_into_window;
    Alcotest.test_case "fusion stats" `Quick test_fusion_stats;
    Alcotest.test_case "dentry cache invalidation" `Quick test_dcache_invalidation;
    Alcotest.test_case "fd table memo" `Quick test_fdtab_memo;
    Alcotest.test_case "machine clone under fusion" `Quick test_clone_under_fusion;
    Alcotest.test_case "calc trace fused = unfused" `Quick test_calc_trace_identical;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
