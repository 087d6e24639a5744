(* Differential tests for register-form folding and the kernel lookup
   caches: the folded engine must be observationally identical to the
   unfolded one, which runs one op per Wasm instruction — same results,
   same instruction counts, same syscall traces — and the VFS dentry
   cache must never serve a stale entry across a namespace mutation. *)

open Wasm
open Wasm.Ast

(* A module exporting [body] as "f" (function 0), with "g" (function 1),
   [g a b = 31a + b], for bodies that call. *)
let build ~params ~results ~locals ~mem body =
  let b = Builder.create ~name:"t" () in
  if mem then ignore (Builder.add_memory b ~min:1 ~max:(Some 4));
  let f = Builder.func b ~name:"f" ~params ~results ~locals body in
  ignore
    (Builder.func b ~name:"g" ~params:[ Types.T_i32; Types.T_i32 ] ~results:[ Types.T_i32 ]
       ~locals:[] [ Local_get 0; I32_const 31l; I32_binop Mul; Local_get 1; I32_binop Add ]);
  Builder.export_func b "f" f;
  Builder.build b

(* Run [body] under both engines, returning (result, steps, fused
   dispatches) for each. *)
let run_both ?(params = []) ?(results = [ Types.T_i32 ]) ?(locals = [])
    ?(mem = false) body args =
  let run fuse =
    let cm =
      Code.compile_module ~fuse (build ~params ~results ~locals ~mem body)
    in
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
  | _ -> Alcotest.fail "folded and unfolded runs diverged in outcome");
  Alcotest.(check int64) "steps" s_u s_f;
  Alcotest.(check int64) "the unfolded engine dispatches no wide op" 0L u_fused;
  fused

(* An op's width and every frame slot it names. *)
let shape (op : Code.op) : int * int list =
  let open Code in
  let js (j : jump) = if j.moves > 0 then [ j.src + j.moves - 1; j.dst + j.moves - 1 ] else [] in
  match op with
  | K_unreachable { w } -> (w, [])
  | K_br { w; j } -> (w, js j)
  | K_br_if { w; c; j } -> (w, c :: js j)
  | K_br_cmp { w; a; b; j; _ } -> (w, a :: b :: js j)
  | K_br_cmp_imm { w; a; j; _ } -> (w, a :: js j)
  | K_br_table { w; i; js = l; dj } -> (w, i :: List.concat_map js (dj :: Array.to_list l))
  | K_return { w; s } -> (w, [ s ])
  | K_call { w; top; _ } | K_poll { w; top } -> (w, [ top - 1 ])
  | K_call_indirect { w; i; top; _ } -> (w, [ i; top - 1 ])
  | K_select { w; a; b; c; d } -> (w, [ a; b; c; d ])
  | K_copy { w; s; d } -> (w, [ s; d ])
  | K_const { w; d; _ } | K_memory_size { w; d } -> (w, [ d ])
  | K_const64 { w; d; _ } | K_global_get { w; d; _ } -> (w, [ d ])
  | K_global_set { w; a; _ } -> (w, [ a ])
  | K_load { w; a; b; d; _ } -> (w, [ a; b; d ])
  | K_memory_grow { w; a; d } -> (w, [ a; d ])
  | K_store { w; a; b; v; _ } -> (w, [ a; b; v ])
  | K_memory_fill { w; a; b; c } | K_memory_copy { w; a; b; c } -> (w, [ a; b; c ])
  | K_num { w; n; a; b; d } ->
      let _, arity, _ = num_sig n in
      (w, if arity = 2 then [ a; b; d ] else [ a; d ])
  | K_i32_binop_imm { w; a; d; _ } | K_i32_relop_imm { w; a; d; _ } -> (w, [ a; d ])
  | K_i32_binop { w; a; b; d; _ } | K_i32_relop { w; a; b; d; _ } -> (w, [ a; b; d ])

let width op = fst (shape op)

(* One case per folding rule, spelled the way the front ends emit it.
   Each case must compile to an op of width > 1 that [is] accepts, and
   must dispatch an op of width > 1, or the rule silently stopped
   applying. *)
let test_idioms () =
  let params = [ Types.T_i32; Types.T_i32 ] in
  let fusing ?(results = [ Types.T_i32 ]) name (is : Code.op -> bool) body args =
    let cm = Code.compile_module (build ~params ~results ~locals:[] ~mem:true body) in
    if not (Array.exists (fun op -> is op && width op > 1) cm.Code.cm_funcs.(0).Code.fc_ops)
    then Alcotest.failf "%s: not in the compiled code" name;
    if check_same ~params ~results ~mem:true body args = 0L then
      Alcotest.failf "%s: no wide op dispatched" name
  in
  let load = I32_load { offset = 0; align = 2 } in
  let store = I32_store { offset = 0; align = 2 } in
  let args a b = [ Values.I32 a; Values.I32 b ] in
  (* branch over [local 1 := 7] when [cond] holds; local 1 shows the way *)
  let skip cond =
    [ Block (Bt_none, cond @ [ Br_if 0; I32_const 7l; Local_set 1 ]); Local_get 1 ]
  in
  let zero = 2 (* the zero slot: above the two locals *) in
  fusing "binop reads two locals"
    (function Code.K_i32_binop { a = 0; b = 1; _ } -> true | _ -> false)
    [ Local_get 0; Local_get 1; I32_binop Add ] (args 3l 4l);
  fusing "binop takes an immediate"
    (function Code.K_i32_binop_imm { a = 0; c = 5; _ } -> true | _ -> false)
    [ Local_get 0; I32_const 5l; I32_binop Mul ] (args 3l 0l);
  fusing "a commuting binop takes a left immediate"
    (function Code.K_i32_binop_imm { a = 0; c = 5; _ } -> true | _ -> false)
    [ I32_const 5l; Local_get 0; I32_binop Add ] (args 3l 0l);
  fusing "local.set becomes the producer's destination"
    (function Code.K_i32_binop_imm { d = 1; _ } -> true | _ -> false)
    [ Local_get 0; I32_const 5l; I32_binop Mul; Local_set 1; Local_get 1 ] (args 7l 0l);
  fusing "local.tee becomes the producer's destination"
    (function Code.K_i32_binop { d = 1; _ } -> true | _ -> false)
    [ Local_get 0; Local_get 1; I32_binop Xor; Local_tee 1; Local_get 0; I32_binop Add ]
    (args 9l 12l);
  fusing "a constant into a local"
    (function Code.K_const { c = 7; d = 1; _ } -> true | _ -> false)
    [ I32_const 7l; Local_set 1; Local_get 1; Local_get 0; I32_binop Sub ] (args 9l 12l);
  fusing "eqz negates a compare"
    (function Code.K_i32_relop { o = Ge_s; _ } -> true | _ -> false)
    [ Local_get 0; Local_get 1; I32_relop Lt_s; I32_eqz ] (args 3l 5l);
  fusing "eqz of a local"
    (function Code.K_i32_relop_imm { o = Eq; a = 0; c = 0; _ } -> true | _ -> false)
    [ Local_get 0; I32_eqz ] (args 42l 0l);
  fusing "load at a fixed address"
    (function Code.K_load { a; b; c = 8; _ } -> a = zero && b = zero | _ -> false)
    [ I32_const 8l; Local_get 0; store; I32_const 8l; load ] (args 77l 0l);
  fusing "store a local at a fixed address"
    (function Code.K_store { a; c = 8; v = 0; _ } -> a = zero | _ -> false)
    [ I32_const 8l; Local_get 0; store; I32_const 8l; load ] (args 77l 0l);
  fusing "an add folds into a load's address"
    (function Code.K_load { a = 0; b = 1; c = 0; _ } -> true | _ -> false)
    [ Local_get 0; Local_get 1; I32_binop Add; load ] (args 4l 8l);
  fusing "an add of an immediate folds into a store's address"
    (function Code.K_store { a = 0; c = 4; v = 1; _ } -> true | _ -> false)
    [ Local_get 0; I32_const 4l; I32_binop Add; Local_get 1; store; Local_get 0; load ] (args 8l 77l);
  fusing "store a zero"
    (function Code.K_store { v; _ } -> v = zero | _ -> false)
    [ Local_get 0; I32_const 0l; store; Local_get 0; load ] (args 12l 0l);
  fusing "branch if zero"
    (function Code.K_br_cmp_imm { o = Eq; c = 0; _ } -> true | _ -> false)
    (skip [ Local_get 0; I32_eqz ]) (args 1l 0l);
  fusing "branch on a negated compare"
    (function Code.K_br_cmp { o = Ge_s; a = 0; b = 1; _ } -> true | _ -> false)
    (skip [ Local_get 0; Local_get 1; I32_relop Lt_s; I32_eqz ]) (args 3l 5l);
  fusing "if on a compare"
    (function Code.K_br_cmp { o = Ge_s; _ } -> true | _ -> false)
    [ Local_get 0; Local_get 1; I32_relop Lt_s;
      If (Bt_val Types.T_i32, [ Local_get 0 ], [ Local_get 1 ]) ] (args 3l 5l);
  fusing "branch on a compare with an immediate (loop)"
    (function Code.K_br_cmp_imm { o = Le_s; a = 0; c = 0; _ } -> true | _ -> false)
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
    (args 10l 0l);
  (* a WALI call's argument widening, on the values where sign- and
     zero-extension differ and on the largest i32: the operand is read as
     it is *)
  List.iter
    (fun c ->
      fusing ~results:[ Types.T_i64 ] "const; i64.extend_i32_s"
        (function Code.K_const { c = c'; _ } -> c' = Int32.to_int c | _ -> false)
        [ I32_const c; I64_extend_i32 SX ] (args 0l 0l);
      fusing ~results:[ Types.T_i64 ] "local.get; i64.extend_i32_s"
        (function Code.K_return { s = 1; _ } -> true | _ -> false)
        [ Local_get 1; I64_extend_i32 SX ] (args 0l c))
    [ -1l; Int32.min_int; 0x7FFF_FFFFl ]

(* The widening's value: sign-extension reads the operand where it is,
   zero-extension stays an op of its own. *)
let test_extend () =
  let run body args =
    match
      run_both ~params:[ Types.T_i32 ] ~results:[ Types.T_i64 ] body args
    with
    | (Interp.R_done [ Values.I64 f ], _, _), (Interp.R_done [ Values.I64 u ], _, _) ->
        Alcotest.(check int64) "folded = unfolded" u f;
        let cm =
          Code.compile_module (build ~params:[ Types.T_i32 ] ~results:[ Types.T_i64 ]
                                 ~locals:[] ~mem:false body)
        in
        ( f,
          Array.exists (function Code.K_num _ -> true | _ -> false)
            cm.Code.cm_funcs.(0).Code.fc_ops )
    | _ -> Alcotest.fail "widening did not return an i64"
  in
  let arg = [ Values.I32 (-1l) ] in
  List.iter
    (fun (name, body) ->
      Alcotest.(check (pair int64 bool)) name (-1L, false) (run body arg))
    [
      ("i32.const -1; i64.extend_i32_s", [ I32_const (-1l); I64_extend_i32 SX ]);
      ("local.get; i64.extend_i32_s", [ Local_get 0; I64_extend_i32 SX ]);
    ];
  List.iter
    (fun (name, body) ->
      Alcotest.(check (pair int64 bool)) name (0xFFFF_FFFFL, true) (run body arg))
    [
      ("i32.const -1; i64.extend_i32_u", [ I32_const (-1l); I64_extend_i32 ZX ]);
      ("local.get; i64.extend_i32_u", [ Local_get 0; I64_extend_i32 ZX ]);
    ]

(* Division stays precise under folding: traps carry the same message
   and the same instruction count (a div never writes a following
   local.set's local). *)
let test_div_trap_parity () =
  ignore
    (check_same ~params:[ Types.T_i32; Types.T_i32 ]
       [ Local_get 0; Local_get 1; I32_binop Div_s ]
       [ Values.I32 7l; Values.I32 0l ]);
  ignore
    (check_same ~params:[ Types.T_i32; Types.T_i32 ]
       [ Local_get 0; Local_get 1; I32_binop Div_s; Local_set 0; Local_get 0 ]
       [ Values.I32 7l; Values.I32 0l ])

(* Folding keeps branch targets intact: the loop back-edge target below
   sits before a local_get/const/binop/local_set run that folds. *)
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

(* Compile-time coverage stats: folding shrinks the op stream, counts the
   wide ops it emitted and charges every Wasm op exactly once, so its
   ops' widths add up to the unfolded op count; the unfolded compile
   counts no wide op. *)
let test_fusion_stats () =
  let m () =
    build ~params:[ Types.T_i32; Types.T_i32 ] ~results:[ Types.T_i32 ]
      ~locals:[] ~mem:false
      [ Local_get 0; Local_get 1; I32_binop Add; Local_set 0; Local_get 0 ]
  in
  let fs = (Code.compile_module ~fuse:true (m ())).Code.cm_fuse in
  if fs.Code.fs_ops_after >= fs.Code.fs_ops_before then
    Alcotest.fail "folding did not shrink the op stream";
  if fs.Code.fs_sites <= 0 then Alcotest.fail "folded compile reports no sites";
  let fs0 = (Code.compile_module ~fuse:false (m ())).Code.cm_fuse in
  Alcotest.(check int) "unfolded compile reports no sites" 0 fs0.Code.fs_sites;
  Alcotest.(check int)
    "unfolded op stream" fs0.Code.fs_ops_before fs0.Code.fs_ops_after;
  Alcotest.(check int) "Wasm ops, folded and unfolded" fs0.Code.fs_ops_after fs.Code.fs_ops_before

(* QCheck: random programs, generated as stack-disciplined fragments so
   loads/stores stay in bounds, must behave identically folded and
   unfolded — same value, same instruction count. Besides straight-line
   code they contain forward branches, [block ... cond; br_if 0; ...],
   whose condition is an eqz or a relop with an optional eqz, calls, and
   the shapes folding must get right: a local read while still pending
   under a write to it ([local.get x; ...; local.set x; use], the write
   on one path of a block, a tee inside the window) and a constant
   feeding a load, a store and a call argument. *)
let program_gen =
  let fragment_gen depth =
    (* (instrs, net stack effect); only fragments legal at [depth] *)
    QCheck.Gen.(
      let local = int_bound 3 in
      (* small constants make compares against locals often tie *)
      let cst = map Int32.of_int (oneof [ int_bound 8; int_bound 1000 ]) in
      let binop =
        oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; Shr_u; Shr_s; Rotl ]
      in
      let relop = oneofl [ Eq; Ne; Lt_s; Lt_u; Gt_s; Ge_u; Le_s ] in
      let operand =
        [
          map (fun i -> [ Local_get i ]) local;
          map (fun c -> [ I32_const c ]) cst;
          map (fun a -> [ I32_const (Int32.of_int a);
                          I32_load { offset = 0; align = 2 } ])
            (int_bound 200);
        ]
      in
      (* A block's stack starts empty, so its condition pushes its own
         operands; the skipped tail writes a local, so both ways differ. *)
      let branch =
        let* a = oneof operand in
        let* cond =
          oneof
            [
              return [ I32_eqz ];
              (let* b = oneof operand in
               let* o = relop in
               let* eqz = bool in
               return (b @ (I32_relop o :: (if eqz then [ I32_eqz ] else []))));
            ]
        in
        let* i = local and* c = cst and* o = binop and* d = local in
        return
          ( [ Block (Bt_none, a @ cond @ [ Br_if 0; Local_get i; I32_const c;
                                           I32_binop o; Local_set d ]) ],
            0 )
      in
      (* an i32 through i64 and back, as a WALI call's argument and
         result go *)
      let round_trip =
        let* a = oneof operand and* e = oneofl [ SX; ZX ] in
        let* op =
          opt
            (pair
               (map Int64.of_int (oneof [ int_bound 40; int ]))
               (oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; Shr_u; Shr_s; Rotl ]))
        in
        let tail = match op with None -> [] | Some (c, o) -> [ I64_const c; I64_binop o ] in
        return (a @ (I64_extend_i32 e :: tail) @ [ I32_wrap_i64 ], 1)
      in
      (* the old value of local x is still pending when x is written *)
      let overwritten =
        let* x = local and* c = cst and* o = binop and* set = oneof operand in
        return ([ Local_get x ] @ set @ [ Local_set x; Local_get x; I32_binop o ]
                @ [ I32_const c; I32_binop Add ], 1)
      in
      (* ... and written on one path of a block only *)
      let overwritten_in_block =
        let* x = local and* c = cst and* o = binop and* cond = oneof operand in
        return
          ( [ Local_get x; Block (Bt_none, cond @ [ Br_if 0; I32_const c; Local_set x ]);
              Local_get x; I32_binop o ],
            1 )
      in
      let teed =
        let* x = local and* y = local and* c = cst and* o = binop and* o2 = binop in
        return ([ Local_get x; Local_get y; I32_const c; I32_binop o; Local_tee x; I32_binop o2 ], 1)
      in
      let call =
        let* a = oneof operand and* b = oneof operand in
        return (a @ b @ [ Call 1 ], 1)
      in
      let push =
        List.map (map (fun is -> (is, 1))) operand
        @ [
            round_trip;
            overwritten;
            overwritten_in_block;
            teed;
            call;
            map2 (fun a i -> ([ I32_const (Int32.of_int a); Local_get i;
                                I32_store { offset = 0; align = 2 } ], 0))
              (int_bound 200) local;
            map2 (fun a c -> ([ I32_const (Int32.of_int a); I32_const c;
                                I32_store { offset = 0; align = 2 } ], 0))
              (int_bound 200) cst;
            branch;
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
          return ([ Call 1 ], -1);
        ]
      in
      oneof
        (push @ (if depth >= 1 then one else []) @ (if depth >= 2 then two else [])))
  in
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* init = list_repeat 4 (map Int32.of_int (int_bound 8)) in
    let prologue =
      List.concat (List.mapi (fun i c -> [ I32_const c; Local_set i ]) init)
    in
    let rec go k depth acc =
      if k = 0 then
        (* settle the stack, then return a digest of the locals *)
        let drops = List.init depth (fun _ -> Drop) in
        return
          (List.rev acc @ drops
          @ [ Local_get 0; Local_get 1; I32_binop Xor; Local_get 2;
              I32_binop Add; Local_get 3; I32_binop Xor ])
      else
        let* frag, eff = fragment_gen depth in
        go (k - 1) (depth + eff) (List.rev_append frag acc)
    in
    go n 0 (List.rev prologue))

let prop_differential =
  QCheck.Test.make ~name:"random programs: fused = unfused" ~count:300
    (QCheck.make program_gen) (fun body ->
      let (r_f, s_f, _), (r_u, s_u, _) =
        run_both ~params:[]
          ~locals:[ Types.T_i32; Types.T_i32; Types.T_i32; Types.T_i32 ]
          ~mem:true body []
      in
      r_f = r_u && s_f = s_u)

(* ---- folding oracle ---- *)

(* What folding must keep of the unfolded code, function by function:
   its ops' widths add up to the unfolded op count (every Wasm op is
   charged exactly once), the calls and polls stay the same and in the
   same order, and every slot an op names lies inside the frame the
   engine reserves. Returns the names of [m]'s functions that break it,
   under [Poll_loops]. *)
let oracle_mismatches (m : module_) =
  let compile fuse = Code.compile_module ~poll:Code.Poll_loops ~fuse m in
  let unfolded = compile false and folded = compile true in
  let visible (fc : Code.fcode) =
    Array.to_list fc.Code.fc_ops
    |> List.filter_map (function
         | Code.K_call { f; _ } -> Some (`Call f)
         | Code.K_call_indirect { ti; _ } -> Some (`Indirect ti)
         | Code.K_poll _ -> Some `Poll
         | _ -> None)
  in
  let in_frame (fc : Code.fcode) =
    let size = Array.length fc.Code.fc_locals + fc.Code.fc_max_height in
    Array.for_all (fun op -> List.for_all (fun s -> s >= 0 && s < size) (snd (shape op)))
      fc.Code.fc_ops
  in
  List.filter_map
    (fun ((u : Code.fcode), (f : Code.fcode)) ->
      let total = Array.fold_left (fun a op -> a + width op) 0 f.Code.fc_ops in
      if total = Array.length u.Code.fc_ops && visible u = visible f && in_frame f && in_frame u
      then None
      else Some f.Code.fc_name)
    (List.combine (Array.to_list unfolded.Code.cm_funcs)
       (Array.to_list folded.Code.cm_funcs))

let test_oracle_suite () =
  List.iter
    (fun a ->
      let m = Binary.decode (Apps.Suite.binary_of a) in
      (match oracle_mismatches m with
      | [] -> ()
      | fs ->
          Alcotest.failf "%s: folding breaks the reference in %s"
            a.Apps.Suite.a_name (String.concat ", " fs));
      (* the compile stats count what the image holds *)
      let cm = Code.compile_module ~poll:Code.Poll_loops m in
      let ops = Array.concat (List.map (fun f -> f.Code.fc_ops) (Array.to_list cm.Code.cm_funcs)) in
      let fs = cm.Code.cm_fuse in
      Alcotest.(check (triple int int int))
        (a.Apps.Suite.a_name ^ ": Wasm ops, ops, ops of width > 1")
        (Array.fold_left (fun n op -> n + width op) 0 ops, Array.length ops,
         Array.fold_left (fun n op -> if width op > 1 then n + 1 else n) 0 ops)
        (fs.Code.fs_ops_before, fs.Code.fs_ops_after, fs.Code.fs_sites))
    Apps.Suite.all

(* The random programs again, compiled only, inside a loop that branches
   back to its header and out of its enclosing block. *)
let prop_oracle =
  QCheck.Test.make ~name:"random programs: one pass = reference fusion" ~count:300
    (QCheck.make program_gen) (fun body ->
      let looped =
        [
          Block
            ( Bt_val Types.T_i32,
              [
                Loop
                  ( Bt_val Types.T_i32,
                    body @ [ Local_get 0; Br_if 0; Local_get 1; Br_if 1 ] );
              ] );
        ]
      in
      oracle_mismatches
        (build ~params:[] ~results:[ Types.T_i32 ]
           ~locals:[ Types.T_i32; Types.T_i32; Types.T_i32; Types.T_i32 ]
           ~mem:true looped)
      = [])

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
        let kernel =
          Apps.Suite.boot ~setup:a.Apps.Suite.a_setup ~stdin:a.Apps.Suite.a_stdin ()
        in
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

(* ---- compiled-image cache ---- *)

(* A program whose bytes, through [tag], differ from every other binary
   the test process loads. *)
let tagged_binary tag =
  let b = Builder.create () in
  ignore (Builder.add_memory b ~min:1 ~max:(Some 1));
  Builder.add_data b ~offset:0 tag;
  let f = Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[] [ Nop ] in
  Builder.export_func b "_start" f;
  Binary.encode (Builder.build b)

let copy s = Bytes.to_string (Bytes.of_string s)

let engine ?poll_scheme ?fuse () =
  Wali.Engine.create ?poll_scheme ?fuse (Kernel.Task.boot ())

let image eng binary =
  let inst =
    Wali.Engine.build_image eng ~resolver:Link.empty_resolver ~binary ~name:"t"
  in
  inst.Rt.i_codes

let cached binary = Wali.Engine.Images.mem Wali.Engine.compile_cache binary

let alive () =
  (Wali.Engine.Images.stats_alive Wali.Engine.compile_cache).Hashtbl.num_bindings

let test_cache_key () =
  let bin = tagged_binary "cache key" in
  let eng = engine () in
  let img = image eng bin in
  if not (img == image eng (copy bin)) then
    Alcotest.fail "an equal binary was compiled again";
  if img == image (engine ~fuse:false ()) bin then
    Alcotest.fail "the unfused engine got the fused image";
  if img == image (engine ~poll_scheme:Code.Poll_none ()) bin then
    Alcotest.fail "another poll scheme got the same image"

(* Loads a fresh binary, drops it and returns an equal copy. *)
let[@inline never] load_and_drop eng tag =
  let bin = tagged_binary tag in
  ignore (image eng bin);
  copy bin

let test_cache_lifetime () =
  let eng = engine () in
  Gc.full_major ();
  let before = alive () in
  let probe = load_and_drop eng "dropped" in
  if not (cached probe) then Alcotest.fail "image not cached while the binary lives";
  Alcotest.(check int) "live entries with the binary" (before + 1) (alive ());
  Gc.full_major ();
  if cached probe then Alcotest.fail "image outlived its binary";
  Alcotest.(check int) "live entries after it is dropped" before (alive ())

(* A live process's [ps_binary] keeps its image: a second load of equal
   bytes after a full collection reuses it. *)
let test_cache_held_by_process () =
  let eng = engine () in
  let[@inline never] spawn () =
    let bin = tagged_binary "held by a process" in
    (Wali.Interface.spawn_init eng ~binary:bin ~argv:[ "t" ] ~env:[], copy bin)
  in
  Fiber.run (fun () ->
      let p, probe = spawn () in
      Gc.full_major ();
      let m = Option.get p.Wali.Engine.pr_machine in
      if not (image eng probe == m.Rt.m_inst.Rt.i_codes) then
        Alcotest.fail "a running process's image was compiled again")

(* ---- load path ---- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

(* Over the suite's binaries, decoding allocates under 4 words per input
   byte (the AST it builds, and nothing per LEB byte or per name), and
   the one compile pass under 8 words per op before fusion, per-function
   overhead included (the two-pass compile took 6.71 and 25.3). *)
let test_load_alloc () =
  let bins = List.map Apps.Suite.binary_of Apps.Suite.all in
  let nbytes = List.fold_left (fun a b -> a + String.length b) 0 bins in
  let words, mods = minor_words (fun () -> List.map Binary.decode bins) in
  let per_byte = words /. float_of_int nbytes in
  if per_byte > 4.0 then
    Alcotest.failf "decode allocates %.2f minor words per byte" per_byte;
  let words, cms =
    minor_words (fun () -> List.map (Code.compile_module ~poll:Code.Poll_loops) mods)
  in
  let nops = List.fold_left (fun a cm -> a + cm.Code.cm_fuse.Code.fs_ops_before) 0 cms in
  let per_op = words /. float_of_int nops in
  if per_op > 8.0 then
    Alcotest.failf "compile allocates %.2f minor words per op" per_op

(* A compiled image keeps what links and runs it, not the decoded
   instruction lists: every function's body in its module is empty, and
   its env holds that same module. The 13 suite images as the engine
   compiles them are 113,091 words in register form, whose ops name their
   slots and width (92,845 as stack-form ops; 211,128 while each kept its
   bodies and boxed constants). The bound is 5% over. *)
let image_words_max = 118_746

let test_image_retention () =
  let cms =
    List.map
      (fun a ->
        (a.Apps.Suite.a_name,
         Code.compile_module ~poll:Code.Poll_loops (Binary.decode (Apps.Suite.binary_of a))))
      Apps.Suite.all
  in
  List.iter
    (fun (name, cm) ->
      if not (Array.for_all (fun f -> f.f_body = []) cm.Code.cm_module.funcs) then
        Alcotest.failf "%s: the image keeps an instruction list" name;
      if cm.Code.cm_env.Code.e_module != cm.Code.cm_module then
        Alcotest.failf "%s: the image's env holds another module" name)
    cms;
  let words = List.fold_left (fun a (_, cm) -> a + Obj.reachable_words (Obj.repr cm)) 0 cms in
  if words > image_words_max then
    Alcotest.failf "the 13 suite images are %d words (at most %d)" words image_words_max

(* ---- back-edge polls ---- *)

(* Under [Poll_loops] a taken back edge performs its loop header's poll
   and lands past it. The loop below takes three kinds of back edge: a
   [br_if] on a computed value, a compare folded into its [br_if] and a
   [br]. With the attention cell armed the hook runs at every poll: the
   folded engine calls it as often, at the same step counts (where a
   signal would be delivered), as the unfolded one; with the cell clear
   it never runs, and the steps still agree. *)
let test_backedge_poll () =
  let body =
    [
      Block
        ( Bt_none,
          [
            Loop
              ( Bt_none,
                [
                  Local_get 0; I32_eqz; Br_if 1;
                  Local_get 1; Local_get 0; I32_binop Add; Local_set 1;
                  Local_get 0; I32_const 1l; I32_binop Sub; Local_tee 0;
                  I32_const 1l; I32_binop And; Br_if 0;
                  Local_get 0; I32_const 3l; I32_binop Rem_u; I32_const 0l; I32_relop Ne; Br_if 0;
                  Br 0;
                ] );
          ] );
      Local_get 1;
    ]
  in
  let run ~fuse ~armed =
    let cm =
      Code.compile_module ~poll:Code.Poll_loops ~fuse
        (build ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ] ~locals:[ Types.T_i32 ]
           ~mem:false body)
    in
    let inst, _ = Link.instantiate Link.empty_resolver cm in
    let m = Rt.Machine.create inst in
    m.Rt.m_attn <- ref armed;
    let at = ref [] in
    m.Rt.poll_hook <- Some (fun m -> at := m.Rt.steps :: !at);
    let r = Interp.invoke m (Rt.exported_func inst "f") [ Values.I32 20l ] in
    (r, m.Rt.steps, List.rev !at)
  in
  List.iter
    (fun armed ->
      let r_f, s_f, at_f = run ~fuse:true ~armed and r_u, s_u, at_u = run ~fuse:false ~armed in
      let what = if armed then "armed" else "clear" in
      if r_f <> r_u then Alcotest.failf "%s: results differ" what;
      Alcotest.(check int64) (what ^ ": steps") s_u s_f;
      Alcotest.(check (list int64)) (what ^ ": steps at each hooked poll") at_u at_f;
      Alcotest.(check int) (what ^ ": hooked polls") (if armed then 21 else 0) (List.length at_f))
    [ true; false ];
  let cm =
    Code.compile_module ~poll:Code.Poll_loops
      (build ~params:[ Types.T_i32 ] ~results:[ Types.T_i32 ] ~locals:[ Types.T_i32 ] ~mem:false
         body)
  in
  let polling = function
    | Code.K_br { j; _ } | Code.K_br_if { j; _ } | Code.K_br_cmp_imm { j; _ } -> j.Code.poll
    | _ -> false
  in
  Alcotest.(check int) "back edges that poll" 3
    (Array.fold_left (fun n op -> if polling op then n + 1 else n) 0
       cm.Code.cm_funcs.(0).Code.fc_ops)

(* Dead code right above a full compile-time operand stack: the
   validator's arrays hold 64 operands at first, and a polymorphic pop in
   the unreachable block below leaves the height at 64, past their end.
   Folded and unfolded, the module compiles and runs. *)
let test_dead_code_at_capacity () =
  let body =
    List.init 64 (fun _ -> Local_get 0)
    @ [ Block (Bt_none, [ Unreachable; Local_tee 0; I64_extend_i32 SX; Drop ]) ]
    @ List.init 63 (fun _ -> Drop)
  in
  ignore (check_same ~params:[ Types.T_i32 ] body [ Values.I32 5l ])

let tests =
  [
    Alcotest.test_case "hot idioms fuse and agree" `Quick test_idioms;
    Alcotest.test_case "widening: _s fuses, _u stays unfused" `Quick test_extend;
    Alcotest.test_case "div trap parity" `Quick test_div_trap_parity;
    Alcotest.test_case "branch into fusion window" `Quick test_branch_into_window;
    Alcotest.test_case "fusion stats" `Quick test_fusion_stats;
    Alcotest.test_case "dentry cache invalidation" `Quick test_dcache_invalidation;
    Alcotest.test_case "fd table memo" `Quick test_fdtab_memo;
    Alcotest.test_case "machine clone under fusion" `Quick test_clone_under_fusion;
    Alcotest.test_case "calc trace fused = unfused" `Quick test_calc_trace_identical;
    Alcotest.test_case "image cache keyed by content and options" `Quick test_cache_key;
    Alcotest.test_case "image dies with its binary" `Quick test_cache_lifetime;
    Alcotest.test_case "live process keeps its image" `Quick test_cache_held_by_process;
    Alcotest.test_case "load path allocation" `Quick test_load_alloc;
    Alcotest.test_case "suite fusion matches the reference" `Quick test_oracle_suite;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "a compiled image keeps no instruction list" `Quick test_image_retention;
    Alcotest.test_case "a back edge performs its loop header's poll" `Quick test_backedge_poll;
    Alcotest.test_case "dead code on a full operand stack compiles" `Quick
      test_dead_code_at_capacity;
  ]
