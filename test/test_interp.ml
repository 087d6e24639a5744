(* Tests for the interpreter's untagged value slots and step counters:
   i32 dispatch that allocates nothing, exact round-trips of every value
   type through slots, frame reuse, fork isolation, counter snapshots, the
   call-stack bound and float rounding. *)

open Wasm
open Wasm.Ast

let i32 = Types.T_i32
let i64 = Types.T_i64
let f32 = Types.T_f32
let f64 = Types.T_f64

let host name params results fn =
  Rt.E_func
    (Rt.Host_func
       { hf_name = name; hf_type = { Types.params; results }; hf_fn = fn })

(* Compile [b]'s module, fused or not, and instantiate it; [hosts] maps
   "env" import names to host functions. *)
let instantiate ?poll ?(fuse = true) ?(hosts = []) b =
  let cm = Code.compile_module ?poll ~fuse (Builder.build b) in
  let resolver ~module_name ~name =
    if module_name = "env" then List.assoc_opt name hosts else None
  in
  fst (Link.instantiate resolver cm)

let invoke inst name args =
  let m = Rt.Machine.create inst in
  (m, Interp.invoke m (Rt.exported_func inst name) args)

let show = function
  | Interp.R_done vs -> String.concat "," (List.map Values.to_string vs)
  | Interp.R_trap s -> "trap: " ^ s
  | Interp.R_exit c -> Printf.sprintf "exit %d" c

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)
(* ------------------------------------------------------------------ *)

(* An i32 loop over locals, memory, calls, select and tee, run for [n]
   and then [2n] trips: whatever the run allocates beyond its fixed
   entry and exit cost must be under one word per trip. *)
let test_no_alloc () =
  let b = Builder.create () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 1));
  let inc =
    Builder.func b ~name:"inc" ~params:[ i32 ] ~results:[ i32 ] ~locals:[]
      [ Local_get 0; I32_const 1l; I32_binop Add ]
  in
  let mem = { offset = 0; align = 2 } in
  let f =
    Builder.func b ~name:"f" ~params:[ i32 ] ~results:[ i32 ] ~locals:[ i32 ]
      [
        Block
          ( Bt_none,
            [
              Loop
                ( Bt_none,
                  [
                    Local_get 0; I32_eqz; Br_if 1;
                    Local_get 1; Call inc; I32_const 3l; I32_binop Mul;
                    Local_get 0; I32_binop Xor; Local_set 1;
                    I32_const 4l; Local_get 1; I32_store mem;
                    Local_get 1; I32_const 4l; I32_load mem; I32_const 1l;
                    I32_binop Shr_u; I32_binop Add; Local_set 1;
                    Local_get 1; Local_get 0; Local_get 0; I32_const 7l;
                    I32_binop And; Select; Drop;
                    Local_get 0; Local_get 1; I32_relop Lt_u; Drop;
                    Local_get 0; I32_const 1l; I32_binop Sub; Local_tee 0; Drop;
                    Br 0;
                  ] );
            ] );
        Local_get 1;
      ]
  in
  Builder.export_func b "f" f;
  List.iter
    (fun fuse ->
      let inst = instantiate ~fuse b in
      let words n =
        let m = Rt.Machine.create inst in
        let w0 = Gc.minor_words () in
        let r = Interp.invoke m (Rt.exported_func inst "f") [ Values.I32 (Int32.of_int n) ] in
        let w1 = Gc.minor_words () in
        (match r with Interp.R_done [ _ ] -> () | r -> Alcotest.fail (show r));
        w1 -. w0
      in
      let n = 4000 in
      ignore (words n);
      let per_trip = (words (2 * n) -. words n) /. float_of_int n in
      if per_trip >= 1.0 then
        Alcotest.failf "%s dispatch allocates %.2f words per trip"
          (if fuse then "fused" else "unfused") per_trip)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Slots                                                                *)
(* ------------------------------------------------------------------ *)

(* Values whose bits a careless slot encoding would change. *)
let edge_values =
  [
    Values.I32 Int32.min_int; I32 Int32.max_int; I32 (-1l);
    I64 Int64.min_int; I64 Int64.max_int; I64 (-1L);
    F32 0x7fa00001l (* signalling NaN with payload *); F32 0xffc00123l;
    F32 0x80000000l (* -0.0 *);
    F64 0x7ff0000000000001L; F64 0xfff8000000000abcL;
    F64 0x8000000000000000L;
  ]

(* Each value goes in as a param, through a local, out to a host call as
   an argument, back as the host's result, and out as the result. *)
let test_slot_roundtrip () =
  let b = Builder.create () in
  let seen = ref [] in
  let types = [ i32; i64; f32; f64 ] in
  let name t = Types.string_of_val_type t in
  let echoes =
    List.map
      (fun t ->
        (t, Builder.import_func b ~module_:"env" ~name:("echo_" ^ name t)
              ~params:[ t ] ~results:[ t ]))
      types
  in
  List.iter
    (fun (t, echo) ->
      let f =
        Builder.func b ~name:(name t) ~params:[ t ] ~results:[ t ] ~locals:[ t ]
          [ Local_get 0; Local_set 1; Local_get 1; Call echo ]
      in
      Builder.export_func b (name t) f)
    echoes;
  let hosts =
    List.map
      (fun t ->
        ( "echo_" ^ name t,
          host ("echo_" ^ name t) [ t ] [ t ] (fun _ args ->
              seen := args.(0) :: !seen;
              Rt.H_return [ args.(0) ]) ))
      types
  in
  let inst = instantiate ~hosts b in
  List.iter
    (fun v ->
      seen := [];
      let _, r = invoke inst (name (Values.type_of v)) [ v ] in
      Alcotest.(check string) "host argument" (Values.to_string v)
        (String.concat "," (List.map Values.to_string !seen));
      match (r, !seen) with
      | Interp.R_done [ v' ], [ a ] when v' = v && a = v -> ()
      | r, _ -> Alcotest.failf "%s came back as %s" (Values.to_string v) (show r))
    edge_values

(* Slots carry no tag, so a host result that contradicts its declared
   type traps at the boundary instead of corrupting a slot. *)
let test_host_result_checked () =
  let b = Builder.create () in
  let h = Builder.import_func b ~module_:"env" ~name:"h" ~params:[] ~results:[ i32 ] in
  Builder.export_func b "f"
    (Builder.func b ~name:"f" ~params:[] ~results:[ i32 ] ~locals:[] [ Call h ]);
  let hosts = [ ("h", host "h" [] [ i32 ] (fun _ _ -> Rt.H_return [ Values.I64 1L ])) ] in
  match invoke (instantiate ~hosts b) "f" [] with
  | _, Interp.R_trap s when Astring_contains.contains s "host function h returned" -> ()
  | _, r -> Alcotest.failf "mistyped host result: %s" (show r)

(* A slot-convention host function reads its arguments in place on the
   stack. They must survive a nested call the host makes on the same
   machine (a signal handler run at the post-call poll does that), its
   result must replace them, and a call from outside the loop must work
   the same way. *)
let test_slot_host_args_stable () =
  let b = Builder.create () in
  let h = Builder.import_func b ~module_:"env" ~name:"h" ~params:[ i64; i64 ] ~results:[ i64 ] in
  Builder.export_func b "g"
    (Builder.func b ~name:"g" ~params:[ i32 ] ~results:[ i32 ] ~locals:[ i64; i64 ]
       [ I64_const (-1L); Local_set 1; I64_const (-2L); Local_set 2; Local_get 0; I32_const 7l;
         I32_binop Mul ]);
  Builder.export_func b "f"
    (Builder.func b ~name:"f" ~params:[] ~results:[ i64 ] ~locals:[]
       [ I64_const 100L; I64_const 5L; I64_const 0x1234L; Call h; I64_binop Add ]);
  let g = ref None in
  let slot (m : Rt.machine) k = Bytes.get_int64_ne m.Rt.stack (8 * k) in
  let hs_fn m base =
    let before = (slot m base, slot m (base + 1)) in
    (match Interp.call_nested m (Option.get !g) [ Values.I32 9l ] with
    | Interp.R_done [ Values.I32 63l ] -> ()
    | r -> Alcotest.failf "nested call: %s" (show r));
    Alcotest.(check (pair int64 int64)) "arguments intact" before (slot m base, slot m (base + 1));
    Int64.to_int (Int64.add (Int64.mul (fst before) 1_000_000L) (snd before))
  in
  let ty = { Types.params = [ i64; i64 ]; results = [ i64 ] } in
  let hosts = [ ("h", Rt.E_func (Rt.host_slot ~name:"h" ty hs_fn)) ] in
  let inst = instantiate ~hosts b in
  g := Some (Rt.exported_func inst "g");
  (match invoke inst "f" [] with
  | _, Interp.R_done [ Values.I64 r ] ->
      Alcotest.(check int64) "f" (Int64.of_int (100 + 5_000_000 + 0x1234)) r
  | _, r -> Alcotest.failf "f: %s" (show r));
  let m = Rt.Machine.create inst in
  let direct = Rt.host_slot ~name:"h" ty hs_fn in
  match Interp.invoke m direct [ Values.I64 2L; Values.I64 3L ] with
  | Interp.R_done [ Values.I64 2_000_003L ] -> Alcotest.(check int) "popped" 0 m.Rt.sp
  | r -> Alcotest.failf "direct call: %s" (show r)

(* A frame record and its stack slots are reused by the next call at the
   same depth: the new frame's locals must read as zero. *)
let test_frame_locals_zeroed () =
  let b = Builder.create () in
  let dirty =
    Builder.func b ~name:"dirty" ~params:[] ~results:[] ~locals:[ i32; i64; f64 ]
      [
        I32_const 0x55l; Local_set 0;
        I64_const 0x5555_5555_5555L; Local_set 1;
        F64_const 0x4015_0000_0000_0000L; Local_set 2;
        I32_const 1l; I32_const 2l; Drop; Drop;
      ]
  in
  let probe =
    Builder.func b ~name:"probe" ~params:[ i32 ] ~results:[ i32 ]
      ~locals:[ i32; i64; f64 ]
      [
        Local_get 1; I32_eqz;
        Local_get 2; I64_eqz; I32_binop And;
        Local_get 3; I64_reinterpret_f64; I64_eqz; I32_binop And;
        Local_get 0; I32_binop Add;
      ]
  in
  let f =
    Builder.func b ~name:"f" ~params:[] ~results:[ i32 ] ~locals:[]
      [ Call dirty; I32_const 41l; Call probe ]
  in
  Builder.export_func b "f" f;
  let inst = instantiate b in
  match invoke inst "f" [] with
  | _, Interp.R_done [ Values.I32 42l ] -> ()
  | _, r -> Alcotest.failf "stale locals: %s" (show r)

(* A fork child's stack and locals are its own, whichever side runs
   first: the parent adds 1 to a local, the child 2, and each reports
   10x + its delta + x, where x was left on the operand stack across the
   fork. *)
let test_fork_isolation () =
  let b = Builder.create () in
  let fork = Builder.import_func b ~module_:"env" ~name:"fork" ~params:[] ~results:[ i64 ] in
  let report = Builder.import_func b ~module_:"env" ~name:"report" ~params:[ i32 ] ~results:[] in
  let f =
    Builder.func b ~name:"f" ~params:[ i32 ] ~results:[] ~locals:[ i32 ]
      [
        Local_get 0; I32_const 10l; I32_binop Mul; Local_set 1;
        Local_get 0;
        Call fork; I32_wrap_i64;
        If
          ( Bt_val i32,
            [ Local_get 1; I32_const 1l; I32_binop Add; Local_tee 1 ],
            [ Local_get 1; I32_const 2l; I32_binop Add; Local_tee 1 ] );
        I32_binop Add; Call report;
      ]
  in
  Builder.export_func b "f" f;
  List.iter
    (fun child_first ->
      let reports = ref [] and child = ref None in
      let hosts =
        [
          ( "fork",
            host "fork" [] [ i64 ] (fun _ _ ->
                Rt.H_fork
                  (fun c ->
                    if child_first then ignore (Interp.resume c) else child := Some c;
                    7L)) );
          ( "report",
            host "report" [ i32 ] [] (fun _ args ->
                reports := Values.as_i32 args.(0) :: !reports;
                Rt.H_return []) );
        ]
      in
      let inst = instantiate ~hosts b in
      (match invoke inst "f" [ Values.I32 3l ] with
      | _, Interp.R_done [] -> ()
      | _, r -> Alcotest.fail (show r));
      Option.iter (fun c -> ignore (Interp.resume c)) !child;
      let expect = if child_first then [ 34l; 35l ] else [ 35l; 34l ] in
      Alcotest.(check (list int32)) "parent and child reports" expect !reports)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                    *)
(* ------------------------------------------------------------------ *)

(* [n] loop trips of 12 ops, the 3-op exit check, then [local.get; call
   probe]: the host sees 12n + 5 retired ops, the call included. The
   div_s by zero three ops later traps at 12n + 8. *)
let test_counter_snapshots () =
  let n = 5 in
  let b = Builder.create () in
  let probe = Builder.import_func b ~module_:"env" ~name:"probe" ~params:[ i32 ] ~results:[ i32 ] in
  let f =
    Builder.func b ~name:"f" ~params:[ i32 ] ~results:[ i32 ] ~locals:[ i32 ]
      [
        Block
          ( Bt_none,
            [
              Loop
                ( Bt_none,
                  [
                    Local_get 0; I32_eqz; Br_if 1;
                    Local_get 1; Local_get 0; I32_binop Add; Local_set 1;
                    Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0;
                    Br 0;
                  ] );
            ] );
        Local_get 1; Call probe;
        Local_get 1; I32_const 0l; I32_binop Div_s;
        I32_binop Add;
      ]
  in
  Builder.export_func b "f" f;
  let run fuse =
    let at_call = ref (0L, 0L) in
    let hosts =
      [
        ( "probe",
          host "probe" [ i32 ] [ i32 ] (fun m args ->
              at_call := (m.Rt.steps, m.Rt.fused);
              Rt.H_return [ args.(0) ]) );
      ]
    in
    let inst = instantiate ~fuse ~hosts b in
    let m, r = invoke inst "f" [ Values.I32 (Int32.of_int n) ] in
    (match r with
    | Interp.R_trap s when Astring_contains.contains s "divide by zero" -> ()
    | r -> Alcotest.failf "expected a trap, got %s" (show r));
    (!at_call, (m.Rt.steps, m.Rt.fused))
  in
  let ((s_call, f_call), (s_trap, f_trap)) = run true in
  let ((u_call, uf_call), (u_trap, uf_trap)) = run false in
  let ops k = Int64.of_int ((12 * n) + k) in
  Alcotest.(check int64) "steps in the host call" (ops 5) s_call;
  Alcotest.(check int64) "steps after the trap" (ops 8) s_trap;
  Alcotest.(check int64) "unfused steps in the host call" s_call u_call;
  Alcotest.(check int64) "unfused steps after the trap" s_trap u_trap;
  Alcotest.(check int64) "fused dispatches in the host call"
    (Int64.of_int ((3 * n) + 1)) f_call;
  Alcotest.(check int64) "fused dispatches after the trap"
    (Int64.of_int ((3 * n) + 2)) f_trap;
  Alcotest.(check (pair int64 int64)) "unfused engine fuses nothing" (0L, 0L)
    (uf_call, uf_trap)

(* ------------------------------------------------------------------ *)
(* Safepoint resume                                                     *)
(* ------------------------------------------------------------------ *)

(* [f n] keeps an i64 and an i32 operand live across its loop header.
   Each trip grows memory by a page in the frame itself, then stores the
   trip count in the last word of memory and adds it back from there. At
   every loop-header poll the hook runs [scribble] through
   [Interp.call_nested]: its locals and operands land in the slots above
   the interrupted [sp], and it grows memory too. The frame must resume
   after its poll with its operands intact and read the grown pages, so
   the result, and the steps less the poll ops and the nested calls',
   equal a run compiled without safepoints. *)
let test_safepoint_resume () =
  let n = 4 in
  let b = Builder.create () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 32));
  let mem = { offset = 0; align = 2 } in
  let f =
    Builder.func b ~name:"f" ~params:[ i32 ] ~results:[ i64 ] ~locals:[ i32; i32 ]
      [
        I64_const 0x7777_0000_0000L; I32_const 1000l;
        Block
          ( Bt_none,
            [
              Loop
                ( Bt_none,
                  [
                    Local_get 0; I32_eqz; Br_if 1;
                    I32_const 1l; Memory_grow; Drop;
                    Memory_size; I32_const 65536l; I32_binop Mul; I32_const 4l;
                    I32_binop Sub; Local_set 2;
                    Local_get 2; Local_get 0; I32_store mem;
                    Local_get 1; Local_get 2; I32_load mem; I32_binop Add; Local_set 1;
                    Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0;
                    Br 0;
                  ] );
            ] );
        Local_get 1; I32_binop Add; I64_extend_i32 SX; I64_binop Add;
      ]
  in
  let scribble =
    Builder.func b ~name:"scribble" ~params:[ i32 ] ~results:[ i32 ]
      ~locals:[ i64; i64; i64; i64 ]
      [
        I64_const (-1L); Local_set 1; I64_const (-1L); Local_set 2;
        I64_const (-1L); Local_set 3; I64_const (-1L); Local_set 4;
        I64_const (-1L); I64_const (-1L); I64_binop Mul; Drop;
        I32_const 1l; Memory_grow; Drop;
        Local_get 0; I32_const 1l; I32_binop Add;
      ]
  in
  Builder.export_func b "f" f;
  Builder.export_func b "scribble" scribble;
  let want = Int64.add 0x7777_0000_0000L (Int64.of_int (1000 + (n * (n + 1) / 2))) in
  let run inst hook =
    let m = Rt.Machine.create inst in
    m.Rt.poll_hook <- hook;
    match Interp.invoke m (Rt.exported_func inst "f") [ Values.I32 (Int32.of_int n) ] with
    | Interp.R_done [ Values.I64 r ] ->
        Alcotest.(check int64) "result" want r;
        m
    | r -> Alcotest.failf "f: %s" (show r)
  in
  let plain = run (instantiate ~poll:Code.Poll_none b) None in
  let inst = instantiate ~poll:Code.Poll_loops b in
  let polls = ref 0 and nested = ref 0 in
  let hook m =
    incr polls;
    if !polls > n + 1 then
      Alcotest.failf "poll %d: the frame did not resume after its safepoint" !polls;
    let s0 = m.Rt.hot_steps in
    (match Interp.call_nested m (Rt.exported_func inst "scribble") [ Values.I32 7l ] with
    | Interp.R_done [ Values.I32 8l ] -> ()
    | r -> Alcotest.failf "nested call: %s" (show r));
    nested := !nested + (m.Rt.hot_steps - s0)
  in
  let m = run inst (Some hook) in
  Alcotest.(check int) "polls" (n + 1) !polls;
  Alcotest.(check int) "steps less polls and nested calls" (Int64.to_int plain.Rt.steps)
    (Int64.to_int m.Rt.steps - !polls - !nested);
  Alcotest.(check int) "pages grown by the frame and at each poll" (1 + n + (n + 1))
    (Rt.Memory.size_pages (Rt.memory0 m))

(* ------------------------------------------------------------------ *)
(* Traps and rounding                                                   *)
(* ------------------------------------------------------------------ *)

(* Unbounded recursion traps instead of growing the host's heap: by
   frame count for a frameless function, by stack slots for one with
   many locals. *)
let test_recursion_bound () =
  let b = Builder.create () in
  let f = Builder.declare_func b ~name:"f" ~params:[] ~results:[] in
  Builder.define b f ~locals:[] [ Call f ];
  let g = Builder.declare_func b ~name:"g" ~params:[] ~results:[] in
  Builder.define b g ~locals:(List.init 200 (fun _ -> i64)) [ Call g ];
  Builder.export_func b "f" f;
  Builder.export_func b "g" g;
  let inst = instantiate b in
  List.iter
    (fun name ->
      match invoke inst name [] with
      | _, Interp.R_trap "call stack exhausted" -> ()
      | _, r -> Alcotest.failf "%s: %s" name (show r))
    [ "f"; "g" ]

(* Wasm's nearest rounds ties to even and keeps the sign of zero. *)
let test_nearest () =
  let b = Builder.create () in
  let f32n =
    Builder.func b ~name:"f32" ~params:[ f32 ] ~results:[ f32 ] ~locals:[]
      [ Local_get 0; F32_unop Nearest ]
  in
  let f64n =
    Builder.func b ~name:"f64" ~params:[ f64 ] ~results:[ f64 ] ~locals:[]
      [ Local_get 0; F64_unop Nearest ]
  in
  Builder.export_func b "f32" f32n;
  Builder.export_func b "f64" f64n;
  let inst = instantiate b in
  List.iter
    (fun (x, want) ->
      (match invoke inst "f32" [ Values.F32 (Int32.bits_of_float x) ] with
      | _, Interp.R_done [ Values.F32 r ] ->
          Alcotest.(check int32) (Printf.sprintf "f32 nearest %g" x)
            (Int32.bits_of_float want) r
      | _, r -> Alcotest.fail (show r));
      match invoke inst "f64" [ Values.F64 (Int64.bits_of_float x) ] with
      | _, Interp.R_done [ Values.F64 r ] ->
          Alcotest.(check int64) (Printf.sprintf "f64 nearest %g" x)
            (Int64.bits_of_float want) r
      | _, r -> Alcotest.fail (show r))
    [
      (2.5, 2.0); (-2.5, -2.0); (3.5, 4.0); (0.5, 0.0); (-0.5, -0.0);
      (1.5, 2.0); (4.5, 4.0); (-1.4, -1.0); (-0.0, -0.0);
    ]

(* Every i32/i64 binop, relop and unop against an [Int32]/[Int64]
   reference, traps included, on operands biased towards the edges. *)
let binops = Ast.[ Add; Sub; Mul; Div_s; Div_u; Rem_s; Rem_u; And; Or; Xor;
                   Shl; Shr_s; Shr_u; Rotl; Rotr ]
let relops = Ast.[ Eq; Ne; Lt_s; Lt_u; Gt_s; Gt_u; Le_s; Le_u; Ge_s; Ge_u ]
let unops = Ast.[ Clz; Ctz; Popcnt ]

let int_ops_inst =
  lazy
    (let b = Builder.create () in
     let export name params r body =
       Builder.export_func b name
         (Builder.func b ~name ~params ~results:[ r ] ~locals:[] body)
     in
     let two = [ Local_get 0; Local_get 1 ] in
     List.iteri
       (fun k o ->
         export (Printf.sprintf "i32b%d" k) [ i32; i32 ] i32 (two @ [ I32_binop o ]);
         export (Printf.sprintf "i64b%d" k) [ i64; i64 ] i64 (two @ [ I64_binop o ]))
       binops;
     List.iteri
       (fun k o ->
         export (Printf.sprintf "i32r%d" k) [ i32; i32 ] i32 (two @ [ I32_relop o ]);
         export (Printf.sprintf "i64r%d" k) [ i64; i64 ] i32 (two @ [ I64_relop o ]))
       relops;
     List.iteri
       (fun k o ->
         export (Printf.sprintf "i32u%d" k) [ i32 ] i32 [ Local_get 0; I32_unop o ];
         export (Printf.sprintf "i64u%d" k) [ i64 ] i64 [ Local_get 0; I64_unop o ])
       unops;
     instantiate b)

module Ref (I : sig
  type t
  val bits : int
  val zero : t
  val one : t
  val minus_one : t
  val min_int : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val rem : t -> t -> t
  val unsigned_div : t -> t -> t
  val unsigned_rem : t -> t -> t
  val logand : t -> t -> t
  val logor : t -> t -> t
  val logxor : t -> t -> t
  val shift_left : t -> int -> t
  val shift_right : t -> int -> t
  val shift_right_logical : t -> int -> t
  val to_int : t -> int
  val of_int : int -> t
  val compare : t -> t -> int
  val unsigned_compare : t -> t -> int
end) =
struct
  let shift b = I.to_int b land (I.bits - 1)
  let rot l a b =
    let n = shift b in
    if n = 0 then a
    else if l then I.logor (I.shift_left a n) (I.shift_right_logical a (I.bits - n))
    else I.logor (I.shift_right_logical a n) (I.shift_left a (I.bits - n))

  let binop (o : Ast.int_binop) a b =
    let nz f = if b = I.zero then Error "integer divide by zero" else Ok (f a b) in
    match o with
    | Add -> Ok (I.add a b) | Sub -> Ok (I.sub a b) | Mul -> Ok (I.mul a b)
    | Div_s when a = I.min_int && b = I.minus_one -> Error "integer overflow"
    | Div_s -> nz I.div
    | Rem_s when b = I.minus_one -> Ok I.zero
    | Rem_s -> nz I.rem
    | Div_u -> nz I.unsigned_div | Rem_u -> nz I.unsigned_rem
    | And -> Ok (I.logand a b) | Or -> Ok (I.logor a b) | Xor -> Ok (I.logxor a b)
    | Shl -> Ok (I.shift_left a (shift b))
    | Shr_s -> Ok (I.shift_right a (shift b))
    | Shr_u -> Ok (I.shift_right_logical a (shift b))
    | Rotl -> Ok (rot true a b) | Rotr -> Ok (rot false a b)

  let relop (o : Ast.int_relop) a b =
    let s = I.compare a b and u = I.unsigned_compare a b in
    match o with
    | Eq -> s = 0 | Ne -> s <> 0
    | Lt_s -> s < 0 | Lt_u -> u < 0 | Gt_s -> s > 0 | Gt_u -> u > 0
    | Le_s -> s <= 0 | Le_u -> u <= 0 | Ge_s -> s >= 0 | Ge_u -> u >= 0

  let bit x i = I.logand (I.shift_right_logical x i) I.one <> I.zero
  let count p = List.length (List.filter p (List.init I.bits Fun.id))
  let unop (o : Ast.int_unop) x =
    let first p = Option.value ~default:I.bits (List.find_opt p (List.init I.bits Fun.id)) in
    I.of_int
      (match o with
      | Clz -> first (fun i -> bit x (I.bits - 1 - i))
      | Ctz -> first (bit x)
      | Popcnt -> count (bit x))
end

module R32 = Ref (struct include Int32 let bits = 32 end)
module R64 = Ref (struct include Int64 let bits = 64 end)

let edge32 =
  QCheck.(oneof [ int32; oneofl [ 0l; 1l; -1l; 31l; 32l; 33l; Int32.min_int; Int32.max_int ] ])

let edge64 =
  QCheck.(oneof [ int64; oneofl [ 0L; 1L; -1L; 63L; 64L; Int64.min_int; Int64.max_int; 0xFFFF_FFFFL ] ])

let int_ops_match_reference =
  QCheck.Test.make ~name:"i32/i64 operators match Int32/Int64" ~count:300
    QCheck.(quad edge32 edge32 edge64 edge64)
    (fun (a, b, x, y) ->
      let inst = Lazy.force int_ops_inst in
      let run name args = snd (invoke inst name args) in
      let same name args expect =
        let got = run name args in
        match (got, expect) with
        | Interp.R_done [ v ], Ok w when v = w -> true
        | Interp.R_trap s, Error e when s = e -> true
        | _ ->
            QCheck.Test.fail_reportf "%s(%s): %s" name
              (String.concat "," (List.map Values.to_string args)) (show got)
      in
      let ok = ref true in
      let i32_bool b' = Values.I32 (if b' then 1l else 0l) in
      List.iteri
        (fun k o ->
          ok := !ok
                && same (Printf.sprintf "i32b%d" k) [ I32 a; I32 b ]
                     (Result.map (fun v -> Values.I32 v) (R32.binop o a b))
                && same (Printf.sprintf "i64b%d" k) [ I64 x; I64 y ]
                     (Result.map (fun v -> Values.I64 v) (R64.binop o x y)))
        binops;
      List.iteri
        (fun k o ->
          ok := !ok
                && same (Printf.sprintf "i32r%d" k) [ I32 a; I32 b ] (Ok (i32_bool (R32.relop o a b)))
                && same (Printf.sprintf "i64r%d" k) [ I64 x; I64 y ] (Ok (i32_bool (R64.relop o x y))))
        relops;
      List.iteri
        (fun k o ->
          ok := !ok
                && same (Printf.sprintf "i32u%d" k) [ I32 a ] (Ok (Values.I32 (R32.unop o a)))
                && same (Printf.sprintf "i64u%d" k) [ I64 x ] (Ok (Values.I64 (R64.unop o x))))
        unops;
      !ok)

(* A compiled constant is its bits: an i32's or f32's sign-extended, an
   i64's or f64's as they are. Each case returns what it computes from one
   constant, on its own and (for i32) as the immediate of each op that
   takes one. A signed compare or [i32.eqz] reads a slot's
   whole [int], so a constant stored zero-extended fails them. *)
let test_const_bits () =
  let b = Builder.create () in
  let cases = ref [] in
  let case name params args results body expect =
    let f = Builder.func b ~name ~params ~results ~locals:[] body in
    Builder.export_func b name f;
    cases := (name, args, expect) :: !cases
  in
  let yes = Values.I32 1l in
  List.iter
    (fun c ->
      let n = Printf.sprintf "i32 %ld" c in
      case n [] [] [ i32 ] [ I32_const c ] (Values.I32 c);
      case (n ^ " <s 0") [] [] [ i32 ] [ I32_const c; I32_const 0l; I32_relop Lt_s ] yes;
      (* local_get; const; xor: a binop with an immediate *)
      case (n ^ " lc") [ i32 ] [ Values.I32 c ] [ i32 ]
        [ Local_get 0; I32_const c; I32_binop Xor; I32_eqz ] yes;
      (* const; xor after a binop: a binop with an immediate *)
      case (n ^ " c") [ i32 ] [ Values.I32 c ] [ i32 ]
        [ Local_get 0; I32_const 0l; I32_binop Or; I32_const c; I32_binop Xor; I32_eqz ] yes;
      (* local_get; const; eq; eqz; br_if: a compare with an immediate
         folded into its branch *)
      case (n ^ " br") [ i32 ] [ Values.I32 c ] [ i32 ]
        [ Block (Bt_val i32,
            [ I32_const 0l; Local_get 0; I32_const c; I32_relop Eq; I32_eqz; Br_if 0;
              Drop; I32_const 1l ]) ]
        yes)
    [ -1l; Int32.min_int ];
  case "i64 min" [] [] [ i64 ] [ I64_const Int64.min_int ] (Values.I64 Int64.min_int);
  case "i64 min <s 0" [] [] [ i32 ] [ I64_const Int64.min_int; I64_const 0L; I64_relop Lt_s ] yes;
  List.iter
    (fun bits ->
      let n = Printf.sprintf "f32 0x%lx" bits in
      case n [] [] [ i32 ] [ F32_const bits; I32_reinterpret_f32 ] (Values.I32 bits);
      case (n ^ " <s 0") [] [] [ i32 ]
        [ F32_const bits; I32_reinterpret_f32; I32_const 0l; I32_relop Lt_s ]
        (Values.I32 (if bits < 0l then 1l else 0l)))
    [ Int32.bits_of_float (-0.0); 0x7fc00001l ];
  List.iter
    (fun bits ->
      case (Printf.sprintf "f64 0x%Lx" bits) [] [] [ i64 ]
        [ F64_const bits; I64_reinterpret_f64 ] (Values.I64 bits))
    [ Int64.bits_of_float (-0.0); 0x7ff8000000000001L ];
  List.iter
    (fun fuse ->
      let inst = instantiate ~fuse b in
      List.iter
        (fun (name, args, expect) ->
          Alcotest.(check string)
            (Printf.sprintf "%s (fuse %b)" name fuse)
            (show (Interp.R_done [ expect ]))
            (show (snd (invoke inst name args))))
        (List.rev !cases))
    [ false; true ]

let tests =
  [
    Alcotest.test_case "dispatch allocates nothing per instruction" `Quick test_no_alloc;
    Alcotest.test_case "untagged slots round-trip edge values" `Quick test_slot_roundtrip;
    Alcotest.test_case "host results are type-checked" `Quick test_host_result_checked;
    Alcotest.test_case "slot host call arguments stay in place" `Quick test_slot_host_args_stable;
    Alcotest.test_case "reused frame's locals are zeroed" `Quick test_frame_locals_zeroed;
    Alcotest.test_case "fork clone stack and locals independent" `Quick test_fork_isolation;
    Alcotest.test_case "counter snapshots stay exact" `Quick test_counter_snapshots;
    Alcotest.test_case "frame resumes after a safepoint" `Quick test_safepoint_resume;
    Alcotest.test_case "unbounded recursion traps" `Quick test_recursion_bound;
    Alcotest.test_case "nearest rounds half to even" `Quick test_nearest;
    QCheck_alcotest.to_alcotest int_ops_match_reference;
    Alcotest.test_case "constants keep their bits, fused and unfused" `Quick test_const_bits;
  ]
