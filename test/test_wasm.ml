(* Tests for the WebAssembly engine: builder -> validate/compile ->
   instantiate -> interpret, binary round-trips, traps, control flow. *)

open Wasm
open Wasm.Ast

let value = Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Values.to_string v))
    ( = )

(* Build a single-function module and run it. *)
let run_func ?(params = []) ?(results = [ Types.T_i32 ]) ?(locals = [])
    ?(mem = false) body args =
  let b = Builder.create ~name:"t" () in
  if mem then ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
  let f = Builder.func b ~name:"f" ~params ~results ~locals body in
  Builder.export_func b "f" f;
  let m = Builder.build b in
  let cm = Code.compile_module m in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  let mach = Rt.Machine.create inst in
  Interp.invoke mach (Rt.exported_func inst "f") args

let expect_i32 ?params ?results ?locals ?mem body args exp =
  match run_func ?params ?results ?locals ?mem body args with
  | Interp.R_done [ v ] -> Alcotest.check value "result" (Values.I32 exp) v
  | Interp.R_done vs ->
      Alcotest.failf "expected 1 result, got %d" (List.length vs)
  | Interp.R_trap s -> Alcotest.failf "trapped: %s" s
  | Interp.R_exit c -> Alcotest.failf "exited: %d" c

let expect_trap ?params ?results ?locals ?mem body args substr =
  match run_func ?params ?results ?locals ?mem body args with
  | Interp.R_trap s ->
      if not (Astring_contains.contains s substr) then
        Alcotest.failf "trap %S does not mention %S" s substr
  | _ -> Alcotest.fail "expected trap"

let test_const () = expect_i32 [ I32_const 42l ] [] 42l

let test_arith () =
  expect_i32
    [ I32_const 6l; I32_const 7l; I32_binop Mul; I32_const 2l; I32_binop Add ]
    [] 44l

let test_locals () =
  expect_i32 ~params:[ Types.T_i32; Types.T_i32 ]
    [ Local_get 0; Local_get 1; I32_binop Sub ]
    [ Values.I32 10l; Values.I32 3l ]
    7l

let test_if_else () =
  let body c =
    [
      I32_const c;
      If (Bt_val Types.T_i32, [ I32_const 1l ], [ I32_const 2l ]);
    ]
  in
  expect_i32 (body 1l) [] 1l;
  expect_i32 (body 0l) [] 2l

let test_nested_blocks () =
  (* br out of nested blocks carrying a value. *)
  expect_i32
    [
      Block
        ( Bt_val Types.T_i32,
          [
            Block
              ( Bt_none,
                [ I32_const 5l; Br 1 ] );
            I32_const 9l;
          ] );
    ]
    [] 5l

let test_loop_sum () =
  (* sum 1..10 with a loop and br_if backedge. *)
  expect_i32 ~locals:[ Types.T_i32; Types.T_i32 ]
    [
      I32_const 0l; Local_set 0; (* i *)
      I32_const 0l; Local_set 1; (* acc *)
      Block
        ( Bt_none,
          [
            Loop
              ( Bt_none,
                [
                  Local_get 0; I32_const 10l; I32_relop Ge_s; Br_if 1;
                  Local_get 0; I32_const 1l; I32_binop Add; Local_tee 0;
                  Local_get 1; I32_binop Add; Local_set 1;
                  Br 0;
                ] );
          ] );
      Local_get 1;
    ]
    [] 55l

let test_br_table () =
  let body n =
    [
      Block
        ( Bt_val Types.T_i32,
          [
            Block
              ( Bt_none,
                [
                  Block
                    ( Bt_none,
                      [
                        Block
                          ( Bt_none,
                            [ I32_const n; Br_table ([ 0; 1 ], 2) ] );
                        I32_const 100l; Br 2;
                      ] );
                  I32_const 200l; Br 1;
                ] );
            I32_const 300l;
          ] );
    ]
  in
  ignore body;
  expect_i32 (body 0l) [] 100l;
  expect_i32 (body 1l) [] 200l;
  expect_i32 (body 7l) [] 300l

let test_call () =
  let b = Builder.create () in
  let add =
    Builder.func b ~name:"add" ~params:[ Types.T_i32; Types.T_i32 ]
      ~results:[ Types.T_i32 ] ~locals:[]
      [ Local_get 0; Local_get 1; I32_binop Add ]
  in
  let f =
    Builder.func b ~name:"f" ~params:[] ~results:[ Types.T_i32 ] ~locals:[]
      [ I32_const 20l; I32_const 22l; Call add ]
  in
  Builder.export_func b "f" f;
  let cm = Code.compile_module (Builder.build b) in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  match Interp.invoke (Rt.Machine.create inst) (Rt.exported_func inst "f") [] with
  | Interp.R_done [ Values.I32 42l ] -> ()
  | _ -> Alcotest.fail "call failed"

let test_recursion_fib () =
  let b = Builder.create () in
  let fib = Builder.declare_func b ~name:"fib" ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ] in
  Builder.define b fib ~locals:[]
    [
      Local_get 0; I32_const 2l; I32_relop Lt_s;
      If
        ( Bt_val Types.T_i32,
          [ Local_get 0 ],
          [
            Local_get 0; I32_const 1l; I32_binop Sub; Call fib;
            Local_get 0; I32_const 2l; I32_binop Sub; Call fib;
            I32_binop Add;
          ] );
    ];
  Builder.export_func b "fib" fib;
  let cm = Code.compile_module (Builder.build b) in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  match
    Interp.invoke (Rt.Machine.create inst)
      (Rt.exported_func inst "fib")
      [ Values.I32 15l ]
  with
  | Interp.R_done [ Values.I32 610l ] -> ()
  | Interp.R_done [ v ] -> Alcotest.failf "fib(15) = %s" (Values.to_string v)
  | _ -> Alcotest.fail "fib failed"

let test_call_indirect () =
  let b = Builder.create () in
  ignore (Builder.add_table b ~min:4 ~max:(Some 4));
  let double =
    Builder.func b ~name:"double" ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ]
      ~locals:[] [ Local_get 0; I32_const 2l; I32_binop Mul ]
  in
  let wrong_sig =
    Builder.func b ~name:"nullary" ~params:[] ~results:[ Types.T_i32 ] ~locals:[]
      [ I32_const 7l ]
  in
  Builder.add_elem b ~table:0 ~offset:1 [ double; wrong_sig ];
  let ti = Builder.type_idx b ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ] in
  let f =
    Builder.func b ~name:"f" ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ]
      ~locals:[]
      [ I32_const 21l; Local_get 0; Call_indirect (ti, 0) ]
  in
  Builder.export_func b "f" f;
  let cm = Code.compile_module (Builder.build b) in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  let call n =
    Interp.invoke (Rt.Machine.create inst) (Rt.exported_func inst "f")
      [ Values.I32 n ]
  in
  (match call 1l with
  | Interp.R_done [ Values.I32 42l ] -> ()
  | _ -> Alcotest.fail "indirect call failed");
  (match call 2l with
  | Interp.R_trap s ->
      Alcotest.(check bool) "signature trap" true
        (Astring_contains.contains s "type mismatch")
  | _ -> Alcotest.fail "expected signature mismatch trap");
  (match call 0l with
  | Interp.R_trap s ->
      Alcotest.(check bool) "null trap" true
        (Astring_contains.contains s "uninitialized")
  | _ -> Alcotest.fail "expected uninitialized element trap")

let test_memory_ops () =
  expect_i32 ~mem:true
    [
      I32_const 16l; I32_const 0x12345678l; I32_store { offset = 0; align = 2 };
      I32_const 16l; I32_load8 (ZX, { offset = 1; align = 0 });
    ]
    [] 0x56l

let test_memory_grow_size () =
  expect_i32 ~mem:true
    [
      Memory_size; Drop;
      I32_const 2l; Memory_grow; Drop;
      Memory_size;
    ]
    [] 3l

let test_memory_oob () =
  expect_trap ~mem:true
    [ I32_const 65536l; I32_load { offset = 0; align = 2 } ]
    [] "out of bounds"

let test_div_by_zero () =
  expect_trap [ I32_const 1l; I32_const 0l; I32_binop Div_s ] [] "divide by zero"

let test_unreachable () = expect_trap [ Unreachable; I32_const 1l ] [] "unreachable"

let test_globals () =
  let b = Builder.create () in
  let g = Builder.add_global b ~mut:Types.Mutable ~typ:Types.T_i32 [ I32_const 10l ] in
  let f =
    Builder.func b ~name:"f" ~params:[] ~results:[ Types.T_i32 ] ~locals:[]
      [
        Global_get g; I32_const 5l; I32_binop Add; Global_set g; Global_get g;
      ]
  in
  Builder.export_func b "f" f;
  let cm = Code.compile_module (Builder.build b) in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  (match Interp.invoke (Rt.Machine.create inst) (Rt.exported_func inst "f") [] with
  | Interp.R_done [ Values.I32 15l ] -> ()
  | _ -> Alcotest.fail "global rmw failed");
  (* second call sees persistent global state *)
  match Interp.invoke (Rt.Machine.create inst) (Rt.exported_func inst "f") [] with
  | Interp.R_done [ Values.I32 20l ] -> ()
  | _ -> Alcotest.fail "global persistence failed"

let test_i64_ops () =
  let body =
    [
      I64_const 0x1122334455667788L;
      I64_const 8L;
      I64_binop Rotl;
      I64_const 0x2233445566778811L;
      I64_relop Eq;
    ]
  in
  expect_i32 body [] 1l

let test_conversions () =
  expect_i32
    [ I64_const 0xFFFFFFFF_00000042L; I32_wrap_i64 ]
    [] 0x42l;
  expect_i32
    [ I32_const (-1l); I64_extend_i32 ZX; I64_const 0xFFFFFFFFL; I64_relop Eq ]
    [] 1l

let test_select_drop () =
  expect_i32
    [ I32_const 10l; I32_const 20l; I32_const 1l; Select ]
    [] 10l;
  expect_i32
    [ I32_const 10l; I32_const 20l; I32_const 0l; Select ]
    [] 20l

let test_validation_rejects () =
  let expect_invalid body =
    let b = Builder.create () in
    let f = Builder.func b ~name:"bad" ~params:[] ~results:[ Types.T_i32 ] ~locals:[] body in
    Builder.export_func b "f" f;
    match Code.compile_module (Builder.build b) with
    | exception Code.Invalid _ -> ()
    | _ -> Alcotest.fail "validator accepted bad module"
  in
  (* type mismatch on add *)
  expect_invalid [ I32_const 1l; I64_const 2L; I32_binop Add ];
  (* stack underflow *)
  expect_invalid [ I32_binop Add ];
  (* missing result *)
  expect_invalid [ Nop ];
  (* bad local index *)
  expect_invalid [ Local_get 3 ];
  (* branch depth out of range *)
  expect_invalid [ Br 4 ]

let test_binary_roundtrip () =
  let b = Builder.create ~name:"rt" () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 8));
  ignore (Builder.add_table b ~min:2 ~max:None);
  let g = Builder.add_global b ~mut:Types.Mutable ~typ:Types.T_i64 [ I64_const (-7L) ] in
  ignore g;
  Builder.add_data b ~offset:64 "hello\x00world";
  let f =
    Builder.func b ~name:"f" ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ]
      ~locals:[ Types.T_i64 ]
      [
        Block
          ( Bt_val Types.T_i32,
            [
              Local_get 0;
              If (Bt_val Types.T_i32, [ I32_const 1l ], [ I32_const 0l ]);
            ] );
      ]
  in
  Builder.add_elem b ~table:0 ~offset:0 [ f ];
  Builder.export_func b "f" f;
  Builder.export_memory b "memory" 0;
  let m = Builder.build b in
  let bin = Binary.encode m in
  let m2 = Binary.decode bin in
  let bin2 = Binary.encode m2 in
  Alcotest.(check string) "binary fixpoint" bin bin2;
  (* decoded module still executes *)
  let cm = Code.compile_module m2 in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  match
    Interp.invoke (Rt.Machine.create inst) (Rt.exported_func inst "f")
      [ Values.I32 5l ]
  with
  | Interp.R_done [ Values.I32 1l ] -> ()
  | _ -> Alcotest.fail "decoded module misbehaves"

(* Malformed binaries fail with [Decode_error], never with another
   exception or by exhausting the host: a guest can execve any bytes it
   wrote. [one_func] is a type section with ()->() and a function section
   with one function of that type. *)
let header = "\x00asm\x01\x00\x00\x00"
let one_func = "\x01\x04\x01\x60\x00\x00\x03\x02\x01\x00"

let decodes_or_rejects what bin =
  match Binary.decode bin with
  | _ -> true
  | exception Binary.Decode_error _ -> false
  | exception e ->
      Alcotest.failf "%s: %s instead of Decode_error" what (Printexc.to_string e)

let expect_decode_error what bin =
  if decodes_or_rejects what bin then Alcotest.failf "%s: decoded" what

let test_decode_truncated () =
  (* a body that ends right after a block opcode *)
  let bin = header ^ one_func ^ "\x0a\x04\x01\x02\x00\x02" in
  Alcotest.(check int) "input size" 24 (String.length bin);
  expect_decode_error "block type at end of input" bin;
  (* every prefix of a suite binary decodes or is rejected *)
  let good = Apps.Suite.binary_of (Option.get (Apps.Suite.find "calc")) in
  for k = 0 to String.length good - 1 do
    ignore (decodes_or_rejects (Printf.sprintf "prefix %d" k) (String.sub good 0 k))
  done

let test_decode_count_bombs () =
  let u32_max = "\xff\xff\xff\xff\x0f" in
  let locals = header ^ one_func ^ "\x0a\x0a\x01\x08\x01" ^ u32_max ^ "\x7f\x0b" in
  Alcotest.(check int) "code section size" 12 (String.length locals - 18);
  expect_decode_error "2^32-1 locals" locals;
  expect_decode_error "2^20+1 locals"
    (header ^ one_func ^ "\x0a\x08\x01\x06\x01\x81\x80\x40\x7f\x0b");
  expect_decode_error "2^32-1 types" (header ^ "\x01\x08" ^ u32_max ^ "\x60\x00\x00");
  expect_decode_error "2^32-1 br_table labels"
    (header ^ one_func ^ "\x0a\x0a\x01\x08\x00\x0e" ^ u32_max ^ "\x0b");
  (* a 10-byte LEB that wraps to a negative name length *)
  expect_decode_error "negative name length"
    (header ^ "\x00\x0b" ^ "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" ^ "x")

(* The load fuzzer's first findings, minimized: a segment naming a table
   or memory the module lacks, or a start function past the index
   space, escaped instantiation as [Invalid_argument]. A table over the
   limit is refused before it is allocated. *)
let test_segment_indices () =
  let expect_invalid what m =
    match Code.compile_module m with
    | exception Code.Invalid _ -> ()
    | _ -> Alcotest.failf "validator accepted %s" what
  in
  let zero = [ I32_const 0l ] in
  expect_invalid "an elem segment for table 3"
    { empty_module with elems = [ { e_table = 3; e_offset = zero; e_funcs = [] } ] };
  expect_invalid "a data segment for memory 1"
    { empty_module with datas = [ { d_mem = 1; d_offset = zero; d_bytes = "x" } ] };
  expect_invalid "start function 0 of none" { empty_module with start = Some 0 };
  expect_invalid "a memory whose min exceeds its max"
    { empty_module with memories = [| { Types.lim_min = 2; lim_max = Some 1 } |] };
  let big = { Types.lim_min = Link.table_limit + 1; lim_max = None } in
  match
    Link.instantiate Link.empty_resolver
      (Code.compile_module { empty_module with tables = [| big |] })
  with
  | exception Link.Link_error _ -> ()
  | _ -> Alcotest.fail "instantiated a table over Link.table_limit"

(* Mutants of the suite's binaries load, or are rejected as malformed,
   invalid or unlinkable: nothing else escapes. [bench fuzz] runs the
   same fuzzer at a larger count. *)
let test_load_fuzz () =
  let s = Apps.Loadfuzz.run ~seed:17 ~count:5000 in
  match s.Apps.Loadfuzz.s_findings with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s\n%s" (Apps.Loadfuzz.pp_summary s)
        (String.concat "\n" (List.map Apps.Loadfuzz.pp_finding fs))

let test_host_func () =
  let b = Builder.create () in
  let h =
    Builder.import_func b ~module_:"env" ~name:"mul3"
      ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ]
  in
  let f =
    Builder.func b ~name:"f" ~params:[] ~results:[ Types.T_i32 ] ~locals:[]
      [ I32_const 14l; Call h ]
  in
  Builder.export_func b "f" f;
  let cm = Code.compile_module (Builder.build b) in
  let resolver ~module_name ~name =
    if module_name = "env" && name = "mul3" then
      Some
        (Rt.E_func
           (Rt.Host_func
              {
                hf_name = "mul3";
                hf_type = { Types.params = [ Types.T_i32 ]; results = [ Types.T_i32 ] };
                hf_fn =
                  (fun _m args ->
                    Rt.H_return [ Values.I32 (Int32.mul 3l (Values.as_i32 args.(0))) ]);
              }))
    else None
  in
  let inst, _ = Link.instantiate resolver cm in
  match Interp.invoke (Rt.Machine.create inst) (Rt.exported_func inst "f") [] with
  | Interp.R_done [ Values.I32 42l ] -> ()
  | _ -> Alcotest.fail "host func failed"

let test_machine_clone () =
  (* Fork semantics at the machine level: mutate cloned memory, original
     unaffected. *)
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
  let cm = Code.compile_module (Builder.build b) in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  let m1 = Rt.Machine.create inst in
  ignore (Interp.invoke m1 (Rt.exported_func inst "poke") [ Values.I32 111l ]);
  let m2 = Rt.Machine.clone m1 in
  ignore
    (Interp.invoke m2 (Rt.exported_func m2.Rt.m_inst "poke") [ Values.I32 222l ]);
  (match Interp.invoke m1 (Rt.exported_func m1.Rt.m_inst "peek") [] with
  | Interp.R_done [ Values.I32 111l ] -> ()
  | _ -> Alcotest.fail "parent memory was dirtied by clone");
  match Interp.invoke m2 (Rt.exported_func m2.Rt.m_inst "peek") [] with
  | Interp.R_done [ Values.I32 222l ] -> ()
  | _ -> Alcotest.fail "clone memory wrong"

let test_poll_safepoints () =
  (* counts polls under the loop scheme: one per iteration. *)
  let b = Builder.create () in
  let f =
    Builder.func b ~name:"spin" ~params:[ Types.T_i32 ] ~results:[] ~locals:[]
      [
        Block
          ( Bt_none,
            [
              Loop
                ( Bt_none,
                  [
                    Local_get 0; I32_eqz; Br_if 1;
                    Local_get 0; I32_const 1l; I32_binop Sub; Local_set 0;
                    Br 0;
                  ] );
            ] );
      ]
  in
  Builder.export_func b "spin" f;
  let cm = Code.compile_module ~poll:Code.Poll_loops (Builder.build b) in
  let inst, _ = Link.instantiate Link.empty_resolver cm in
  let m = Rt.Machine.create inst in
  let polls = ref 0 in
  m.Rt.poll_hook <- Some (fun _ -> incr polls);
  ignore (Interp.invoke m (Rt.exported_func inst "spin") [ Values.I32 10l ]);
  Alcotest.(check int) "polls" 11 !polls

(* QCheck properties *)

let leb_roundtrip_i64 =
  QCheck.Test.make ~name:"LEB128 s64 round-trip" ~count:500 QCheck.int64
    (fun v ->
      let b = Buffer.create 10 in
      Binary.E.s64 b v;
      let d = Binary.D.make (Buffer.contents b) in
      Binary.D.s64 d = v)

let leb_roundtrip_u32 =
  QCheck.Test.make ~name:"LEB128 u32 round-trip" ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun v ->
      let b = Buffer.create 10 in
      Binary.E.u32 b v;
      let d = Binary.D.make (Buffer.contents b) in
      Binary.D.u32 d = v)

let i32_ops_match_native =
  QCheck.Test.make ~name:"i32 add/sub/mul match Int32" ~count:300
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      let run op =
        match
          run_func ~params:[ Types.T_i32; Types.T_i32 ]
            [ Local_get 0; Local_get 1; I32_binop op ]
            [ Values.I32 a; Values.I32 b ]
        with
        | Interp.R_done [ Values.I32 v ] -> v
        | _ -> Alcotest.fail "prop run failed"
      in
      run Add = Int32.add a b && run Sub = Int32.sub a b
      && run Mul = Int32.mul a b
      && run Xor = Int32.logxor a b)

let shift_masking =
  QCheck.Test.make ~name:"i32 shifts mask the count" ~count:200
    QCheck.(pair int32 (int_bound 200))
    (fun (a, s) ->
      match
        run_func ~params:[ Types.T_i32 ]
          [ Local_get 0; I32_const (Int32.of_int s); I32_binop Shl ]
          [ Values.I32 a ]
      with
      | Interp.R_done [ Values.I32 v ] ->
          v = Int32.shift_left a (s land 31)
      | _ -> false)

(* Random create/clone/grow/scribble/release sequences over a few live
   memories, with released buffers going back on the free list: no two
   live memories share their bytes, every new memory reads as zeros
   (though it may reuse a scribbled buffer), every clone equals its
   source, a released memory has 0 pages, and the free list stays within
   its cap. *)
type mem_op = Create of int | Clone of int | Grow of int * int | Scribble of int * int | Release of int

let recycled_memories =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map (fun p -> Create p) (int_bound 2)); (3, map (fun i -> Clone i) nat);
          (1, map2 (fun i n -> Grow (i, n)) nat (int_bound 1));
          (3, map2 (fun i a -> Scribble (i, a)) nat nat); (3, map (fun i -> Release i) nat) ])
  in
  QCheck.Test.make ~name:"recycled memories never alias, read zero, clone exactly" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 24) op))
    (fun ops ->
      let live = ref [] in
      let pick i = List.nth !live (i mod List.length !live) in
      let zero m = Bytes.for_all (( = ) '\000') m.Rt.Memory.data in
      let step = function
        | Create p ->
            let m = Rt.Memory.create ~min_pages:p ~max_pages:3 in
            live := m :: !live;
            zero m
        | _ when !live = [] -> true
        | Clone i ->
            let src = pick i in
            let m = Rt.Memory.clone src in
            live := m :: !live;
            Bytes.equal m.Rt.Memory.data src.Rt.Memory.data
        | Grow (i, n) -> ignore (Rt.Memory.grow (pick i) n); true
        | Scribble (i, a) ->
            let m = pick i in
            Rt.Memory.fill m ~dst:0 ~byte:(1 + (a mod 255)) ~len:(Rt.Memory.size_bytes m);
            true
        | Release i ->
            let m = pick i in
            live := List.filter (fun m' -> m' != m) !live;
            Rt.Memory.release m;
            Rt.Memory.size_pages m = 0
      in
      let rec distinct = function
        | [] -> true
        | m :: rest ->
            (Rt.Memory.size_bytes m = 0
            || List.for_all (fun m' -> m'.Rt.Memory.data != m.Rt.Memory.data) rest)
            && distinct rest
      in
      List.for_all
        (fun o -> step o && distinct !live && Rt.Memory.free_bytes () <= Rt.Memory.free_cap)
        ops)

let tests =
  [
    Alcotest.test_case "const" `Quick test_const;
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "locals" `Quick test_locals;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "nested blocks + br" `Quick test_nested_blocks;
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "br_table" `Quick test_br_table;
    Alcotest.test_case "call" `Quick test_call;
    Alcotest.test_case "recursive fib" `Quick test_recursion_fib;
    Alcotest.test_case "call_indirect + signature trap" `Quick test_call_indirect;
    Alcotest.test_case "memory load/store" `Quick test_memory_ops;
    Alcotest.test_case "memory grow/size" `Quick test_memory_grow_size;
    Alcotest.test_case "memory out of bounds" `Quick test_memory_oob;
    Alcotest.test_case "div by zero traps" `Quick test_div_by_zero;
    Alcotest.test_case "unreachable traps" `Quick test_unreachable;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "i64 rotl" `Quick test_i64_ops;
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "select" `Quick test_select_drop;
    Alcotest.test_case "validator rejects" `Quick test_validation_rejects;
    Alcotest.test_case "binary round-trip" `Quick test_binary_roundtrip;
    Alcotest.test_case "truncated input is a decode error" `Quick test_decode_truncated;
    Alcotest.test_case "count bombs are decode errors" `Quick test_decode_count_bombs;
    Alcotest.test_case "segment indices are validated" `Quick test_segment_indices;
    Alcotest.test_case "module load fuzzer" `Quick test_load_fuzz;
    Alcotest.test_case "host function" `Quick test_host_func;
    Alcotest.test_case "machine clone isolates memory" `Quick test_machine_clone;
    Alcotest.test_case "loop safepoints" `Quick test_poll_safepoints;
    QCheck_alcotest.to_alcotest leb_roundtrip_i64;
    QCheck_alcotest.to_alcotest leb_roundtrip_u32;
    QCheck_alcotest.to_alcotest i32_ops_match_native;
    QCheck_alcotest.to_alcotest recycled_memories;
    QCheck_alcotest.to_alcotest shift_masking;
  ]
