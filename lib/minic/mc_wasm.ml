(** MiniC -> Wasm(WALI) code generator: the `wasm32-wali-linux` target.

    - Globals, arrays and string literals live in linear memory below
      `__heap_base` (exported for the WALI mmap manager).
    - syscall("name", ...) lowers to a call of import ("wali", "SYS_name")
      with i64-normalized arguments — the name-bound interface, so the
      module's import section is its syscall manifest.
    - fnptr(f) yields f's index in table 0; slots 0/1 stay empty because
      they collide with SIG_DFL/SIG_IGN in sigaction handlers. *)

open Mc_ast
open Wasm
open Wasm.Ast

type ctx = {
  l : Mc_layout.t;
  b : Builder.t;
  func_idx : (string, int) Hashtbl.t;
  syscall_imports : (string, int) Hashtbl.t;
  builtin_imports : (string, int) Hashtbl.t;
}

(* ---- expression compilation ---- *)

type fctx = {
  locals : (string, int * ty) Hashtbl.t;
  mutable local_types : Types.val_type list; (* reversed extra locals *)
  mutable nlocals : int; (* including params *)
  scratch : int;
  ret : ty;
}

let i32c n = I32_const (Int32.of_int n)

let load_of = function
  | TChar -> I32_load8 (ZX, { offset = 0; align = 0 })
  | _ -> I32_load { offset = 0; align = 2 }

let store_of = function
  | TChar -> I32_store8 { offset = 0; align = 0 }
  | _ -> I32_store { offset = 0; align = 2 }

let ty_of ctx fc e = Mc_layout.ty_of ctx.l fc.locals e

let rec compile_expr ctx fc (e : expr) : instr list =
  match e with
  | EInt n -> [ I32_const (Int32.of_int n) ]
  | ESizeof t -> [ i32c (size_of t) ]
  | EStr s -> [ i32c (Mc_layout.intern ctx.l s) ]
  | EFnptr f -> [ i32c (Hashtbl.find ctx.l.fnptr_slots f) ]
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) -> [ Local_get i ]
      | None ->
          let g = Mc_layout.global ctx.l n in
          if g.g_is_array then [ i32c g.g_addr ]
          else [ i32c g.g_addr; load_of g.g_ty ])
  | ECall (f, args) ->
      List.concat_map (compile_expr ctx fc) args
      @ [ Call (Hashtbl.find ctx.func_idx f) ]
  | ESyscall (name, args) ->
      List.concat_map
        (fun a -> compile_expr ctx fc a @ [ I64_extend_i32 SX ])
        args
      @ [ Call (Hashtbl.find ctx.syscall_imports name); I32_wrap_i64 ]
  | EBuiltin ("memcopy", [ d; s; n ]) ->
      compile_expr ctx fc d @ compile_expr ctx fc s @ compile_expr ctx fc n
      @ [ Memory_copy ]
  | EBuiltin ("memfill", [ d; c; n ]) ->
      compile_expr ctx fc d @ compile_expr ctx fc c @ compile_expr ctx fc n
      @ [ Memory_fill ]
  | EBuiltin ("calli", target :: args) ->
      let ti =
        Builder.type_idx ctx.b
          ~params:(List.map (fun _ -> Types.T_i32) args)
          ~results:[ Types.T_i32 ]
      in
      List.concat_map (compile_expr ctx fc) args
      @ compile_expr ctx fc target
      @ [ Call_indirect (ti, 0) ]
  | EBuiltin (b, args) ->
      List.concat_map (compile_expr ctx fc) args
      @ [ Call (Hashtbl.find ctx.builtin_imports b) ]
  | EUnop (Neg, a) -> (i32c 0 :: compile_expr ctx fc a) @ [ I32_binop Sub ]
  | EUnop (Not, a) -> compile_expr ctx fc a @ [ I32_eqz ]
  | EUnop (Bnot, a) -> compile_expr ctx fc a @ [ i32c (-1); I32_binop Xor ]
  | EBinop (And, a, b) ->
      compile_expr ctx fc a
      @ [
          If
            ( Bt_val Types.T_i32,
              compile_expr ctx fc b @ [ I32_eqz; I32_eqz ],
              [ i32c 0 ] );
        ]
  | EBinop (Or, a, b) ->
      compile_expr ctx fc a
      @ [
          If
            ( Bt_val Types.T_i32,
              [ i32c 1 ],
              compile_expr ctx fc b @ [ I32_eqz; I32_eqz ] );
        ]
  | EBinop (op, a, b) -> compile_binop ctx fc op a b
  | EAssign (l, r) -> compile_assign ctx fc l r ~want_value:true
  | EIndex (p, i) ->
      let et = ty_of ctx fc e in
      compile_addr_index ctx fc p i @ [ load_of et ]
  | EDeref p ->
      let et = ty_of ctx fc e in
      compile_expr ctx fc p @ [ load_of et ]
  | ECast (_, a) -> compile_expr ctx fc a
  | ECond (c, a, b) ->
      compile_expr ctx fc c
      @ [ If (Bt_val Types.T_i32, compile_expr ctx fc a, compile_expr ctx fc b) ]

and compile_binop ctx fc op a b : instr list =
  let ta = ty_of ctx fc a and tb = ty_of ctx fc b in
  let ea = compile_expr ctx fc a and eb = compile_expr ctx fc b in
  let scale t es =
    let sz = elem_size t in
    if sz = 1 then es else es @ [ i32c sz; I32_binop Mul ]
  in
  match (op, ta, tb) with
  | Add, TPtr _, _ -> ea @ scale ta eb @ [ I32_binop Add ]
  | Add, _, TPtr _ -> scale tb ea @ eb @ [ I32_binop Add ]
  | Sub, TPtr _, (TInt | TChar) -> ea @ scale ta eb @ [ I32_binop Sub ]
  | Sub, TPtr _, TPtr _ ->
      let sz = elem_size ta in
      ea @ eb @ [ I32_binop Sub ]
      @ (if sz = 1 then [] else [ i32c sz; I32_binop Div_s ])
  | _ ->
      let ins =
        match op with
        | Add -> I32_binop Add
        | Sub -> I32_binop Sub
        | Mul -> I32_binop Mul
        | Div -> I32_binop Div_s
        | Mod -> I32_binop Rem_s
        | Shl -> I32_binop Shl
        | Shr -> I32_binop Shr_s
        | Band -> I32_binop And
        | Bor -> I32_binop Or
        | Bxor -> I32_binop Xor
        | Lt -> I32_relop Lt_s
        | Le -> I32_relop Le_s
        | Gt -> I32_relop Gt_s
        | Ge -> I32_relop Ge_s
        | Eq -> I32_relop Eq
        | Ne -> I32_relop Ne
        | And | Or -> assert false
      in
      ea @ eb @ [ ins ]

and compile_addr_index ctx fc p i : instr list =
  let pt = ty_of ctx fc p in
  let sz = elem_size pt in
  compile_expr ctx fc p
  @ compile_expr ctx fc i
  @ (if sz = 1 then [] else [ i32c sz; I32_binop Mul ])
  @ [ I32_binop Add ]

and compile_assign ctx fc l r ~want_value : instr list =
  match l with
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) ->
          compile_expr ctx fc r @ [ (if want_value then Local_tee i else Local_set i) ]
      | None ->
          let g = Mc_layout.global ctx.l n in
          if g.g_is_array then error "cannot assign to array %s" n;
          compile_expr ctx fc r
          @ [ Local_set fc.scratch; i32c g.g_addr; Local_get fc.scratch;
              store_of g.g_ty ]
          @ (if want_value then [ Local_get fc.scratch ] else []))
  | EIndex (p, i) ->
      let et = ty_of ctx fc l in
      compile_addr_index ctx fc p i
      @ compile_expr ctx fc r
      @
      if want_value then
        [ Local_tee fc.scratch; store_of et; Local_get fc.scratch ]
      else [ store_of et ]
  | EDeref p ->
      let et = ty_of ctx fc l in
      compile_expr ctx fc p
      @ compile_expr ctx fc r
      @
      if want_value then
        [ Local_tee fc.scratch; store_of et; Local_get fc.scratch ]
      else [ store_of et ]
  | _ -> error "not an lvalue"

(* ---- statements ---- *)

type label = L_break | L_continue | L_other

let rec compile_stmt ctx fc (labels : label list) (s : stmt) : instr list =
  match s with
  | SExpr (EAssign (l, r)) -> compile_assign ctx fc l r ~want_value:false
  | SExpr e ->
      let t = ty_of ctx fc e in
      compile_expr ctx fc e @ (if t = TVoid then [] else [ Drop ])
  | SDecl (t, n, init) ->
      let idx = fc.nlocals in
      fc.nlocals <- fc.nlocals + 1;
      fc.local_types <- Types.T_i32 :: fc.local_types;
      Hashtbl.replace fc.locals n (idx, t);
      (match init with
      | Some e -> compile_expr ctx fc e @ [ Local_set idx ]
      | None -> [])
  | SIf (c, t, e) ->
      compile_expr ctx fc c
      @ [
          If
            ( Bt_none,
              compile_block ctx fc (L_other :: labels) t,
              compile_block ctx fc (L_other :: labels) e );
        ]
  | SWhile (c, body) ->
      let inner = L_continue :: L_break :: labels in
      [
        Block
          ( Bt_none,
            [
              Loop
                ( Bt_none,
                  compile_expr ctx fc c
                  @ [ I32_eqz; Br_if 1 ]
                  @ compile_block ctx fc inner body
                  @ [ Br 0 ] );
            ] );
      ]
  | SFor (init, cond, step, body) ->
      let init_code =
        match init with Some s -> compile_stmt ctx fc labels s | None -> []
      in
      (* labels inside body: Block(cont) :: Loop :: Block(brk) *)
      let inner = L_continue :: L_other :: L_break :: labels in
      (* cond sits directly in the Loop: 0 = loop header, 1 = break block *)
      let cond_code =
        match cond with
        | Some c -> compile_expr ctx fc c @ [ I32_eqz; Br_if 1 ]
        | None -> []
      in
      let step_code =
        match step with
        | Some e ->
            let t = ty_of ctx fc e in
            (match e with
            | EAssign (l, r) -> compile_assign ctx fc l r ~want_value:false
            | _ -> compile_expr ctx fc e @ (if t = TVoid then [] else [ Drop ]))
        | None -> []
      in
      init_code
      @ [
          Block
            ( Bt_none,
              [
                Loop
                  ( Bt_none,
                    cond_code
                    @ [ Block (Bt_none, compile_block ctx fc inner body) ]
                    @ step_code @ [ Br 0 ] );
              ] );
        ]
  | SReturn None -> [ Return ]
  | SReturn (Some e) -> compile_expr ctx fc e @ [ Return ]
  | SBreak ->
      let rec find i = function
        | [] -> error "break outside loop"
        | L_break :: _ -> i
        | _ :: rest -> find (i + 1) rest
      in
      [ Br (find 0 labels) ]
  | SContinue ->
      let rec find i = function
        | [] -> error "continue outside loop"
        | L_continue :: _ -> i
        | _ :: rest -> find (i + 1) rest
      in
      [ Br (find 0 labels) ]
  | SBlock b -> compile_block ctx fc labels b

and compile_block ctx fc labels (b : stmt list) : instr list =
  List.concat_map (compile_stmt ctx fc labels) b

(* ---- program ---- *)

let compile ?data_base (p : program) : module_ =
  let l = Mc_layout.create ?data_base p in
  let b = Builder.create ~name:"minic" () in
  let ctx =
    {
      l;
      b;
      func_idx = Hashtbl.create 32;
      syscall_imports = Hashtbl.create 16;
      builtin_imports = Hashtbl.create 8;
    }
  in
  (* imports first *)
  Hashtbl.iter
    (fun name arity ->
      let idx =
        Builder.import_func b ~module_:"wali" ~name:("SYS_" ^ name)
          ~params:(List.init arity (fun _ -> Types.T_i64))
          ~results:[ Types.T_i64 ]
      in
      Hashtbl.replace ctx.syscall_imports name idx)
    l.syscalls;
  Hashtbl.iter
    (fun name arity ->
      let idx =
        Builder.import_func b ~module_:"wali"
          ~name:(Mc_layout.builtin_import_name name)
          ~params:(List.init arity (fun _ -> Types.T_i32))
          ~results:[ Types.T_i32 ]
      in
      Hashtbl.replace ctx.builtin_imports name idx)
    l.builtins;
  (* declare all functions (forward references allowed) *)
  let funcs = List.filter_map (function GFunc f -> Some f | _ -> None) p in
  List.iter
    (fun f ->
      let params = List.map (fun _ -> Types.T_i32) f.fn_params in
      let results = if f.fn_ret = TVoid then [] else [ Types.T_i32 ] in
      let idx = Builder.declare_func b ~name:f.fn_name ~params ~results in
      Hashtbl.replace ctx.func_idx f.fn_name idx)
    funcs;
  (* fnptr table: slots 0/1 reserved (SIG_DFL / SIG_IGN) *)
  ignore (Builder.add_table b ~min:(2 + List.length l.fnptrs) ~max:None);
  if l.fnptrs <> [] then
    Builder.add_elem b ~table:0 ~offset:2
      (List.map
         (fun n ->
           match Hashtbl.find_opt ctx.func_idx n with
           | Some i -> i
           | None -> error "fnptr of unknown function %s" n)
         l.fnptrs);
  (* compile bodies *)
  List.iter
    (fun f ->
      let fc =
        {
          locals = Hashtbl.create 16;
          local_types = [];
          nlocals = List.length f.fn_params + 1;
          scratch = List.length f.fn_params;
          ret = f.fn_ret;
        }
      in
      List.iteri
        (fun i (t, n) -> Hashtbl.replace fc.locals n (i, t))
        f.fn_params;
      (* scratch local is at index nparams *)
      fc.local_types <- [ Types.T_i32 ];
      let body = compile_block ctx fc [] f.fn_body in
      let body = if f.fn_ret = TVoid then body else body @ [ i32c 0 ] in
      Builder.define b
        (Hashtbl.find ctx.func_idx f.fn_name)
        ~locals:(List.rev fc.local_types) body)
    funcs;
  (* synthesize _start if there is a main *)
  (match Hashtbl.find_opt ctx.func_idx "main" with
  | Some main_idx ->
      let rt_init = Hashtbl.find_opt ctx.func_idx "__rt_init" in
      let exit_import =
        match Hashtbl.find_opt ctx.syscall_imports "exit_group" with
        | Some i -> i
        | None -> error "program must use syscall(\"exit_group\") via the libc"
      in
      let argc_g = Hashtbl.find_opt l.globals "__argc" in
      let argv_g = Hashtbl.find_opt l.globals "__argv" in
      let main_arity =
        (Hashtbl.find l.env.Mc_check.funcs "main").Mc_check.fs_params |> List.length
      in
      let call_main =
        if main_arity = 0 then [ Call main_idx ]
        else
          match (argc_g, argv_g) with
          | Some ac, Some av ->
              [
                i32c ac.g_addr; I32_load { offset = 0; align = 2 };
                i32c av.g_addr; I32_load { offset = 0; align = 2 };
                Call main_idx;
              ]
          | _ -> error "main(argc, argv) requires the libc (__argc/__argv)"
      in
      let body =
        (match rt_init with Some i -> [ Call i ] | None -> [])
        @ call_main
        @ [ I64_extend_i32 SX; Call exit_import; Drop ]
      in
      let start = Builder.func b ~name:"_start" ~params:[] ~results:[] ~locals:[] body in
      Builder.export_func b "_start" start
  | None -> ());
  (* memory: enough pages for data + slack *)
  let data_pages = (l.data_end / Types.page_size) + 2 in
  ignore (Builder.add_memory b ~min:data_pages ~max:(Some 1024));
  Builder.export_memory b "memory" 0;
  List.iter (fun (addr, bytes) -> Builder.add_data b ~offset:addr bytes) l.data;
  let hb = Builder.add_global b ~mut:Types.Immutable ~typ:Types.T_i32
      [ I32_const (Int32.of_int (Mc_layout.heap_base l)) ] in
  Builder.export_global b "__heap_base" hb;
  Builder.build b
