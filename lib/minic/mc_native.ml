(** MiniC -> host-closure backend: the "native" baseline.

    The program compiles to OCaml closures over an explicit store (a flat
    byte memory laid out by {!Mc_layout}, as on the Wasm target), so it
    executes without any bytecode interpretation — playing the role of natively
    compiled code in the Fig 8 comparison and in differential tests
    against the Wasm and RV32 backends.

    The runner supplies the OS surface, bound once per name: each
    syscall the program makes (the libc -> kernel boundary) and each
    imported builtin (argv/env accessors, thread spawning), which a call
    site reaches by index. Safepoint polling runs at loop headers,
    mirroring the engines, so signals reach native processes too. *)

open Mc_ast

type hooks = {
  h_sys : (int array -> int) array; (* syscall [nc_syscalls.(i)] *)
  h_builtin : (int array -> int) array; (* builtin [nc_builtins.(i)] *)
  h_poll : unit -> unit; (* loop-header safepoint *)
}

(* Execution state passed to every compiled closure. *)
type st = {
  mem : Wasm.Rt.Memory.t;
  hooks : hooks;
  funcs : (st -> int array -> int) array;
  mutable steps : int; (* loop-iteration counter, for metrics *)
}

exception Ret of int
exception Brk
exception Cnt

let wrap v = (v land 0xFFFFFFFF) - (if v land 0x80000000 <> 0 then 0x100000000 else 0)

let load mem ty addr =
  match ty with
  | TChar -> Wasm.Rt.Memory.load8_u mem addr
  | _ -> wrap (Int32.to_int (Wasm.Rt.Memory.load32 mem addr))

let store mem ty addr v =
  match ty with
  | TChar -> Wasm.Rt.Memory.store8 mem addr v
  | _ -> Wasm.Rt.Memory.store32 mem addr (Int32.of_int v)

type cctx = {
  l : Mc_layout.t;
  func_idx : (string, int) Hashtbl.t;
  syscalls : string array; (* the program's syscall names, sorted *)
  builtins : string array; (* its imported builtins, sorted *)
}

(* A name's index among the sorted [names] a call site reaches it by. *)
let index names n =
  match Array.find_index (String.equal n) names with
  | Some i -> i
  | None -> error "native: %s is not an import" n

let sorted_names tbl = Array.of_list (List.sort compare (Hashtbl.fold (fun n _ a -> n :: a) tbl []))

type fctx = { locals : (string, int * ty) Hashtbl.t; mutable nlocals : int }

let ty_of ctx fc e = Mc_layout.ty_of ctx.l fc.locals e

(* compile expr -> (st -> int array -> int) where the array holds locals *)
let rec cexpr ctx fc (e : expr) : st -> int array -> int =
  match e with
  | EInt n ->
      let n = wrap n in
      fun _ _ -> n
  | ESizeof t ->
      let s = size_of t in
      fun _ _ -> s
  | EStr s ->
      let a = Mc_layout.intern ctx.l s in
      fun _ _ -> a
  | EFnptr f ->
      let slot = Hashtbl.find ctx.l.fnptr_slots f in
      fun _ _ -> slot
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) -> fun _ l -> l.(i)
      | None ->
          let g = Mc_layout.global ctx.l n in
          if g.g_is_array then fun _ _ -> g.g_addr
          else
            let addr = g.g_addr and t = g.g_ty in
            fun st _ -> load st.mem t addr)
  | ECall (f, args) ->
      let idx = Hashtbl.find ctx.func_idx f in
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      fun st l ->
        let a = Array.map (fun c -> c st l) cargs in
        st.funcs.(idx) st a
  | ESyscall (name, args) ->
      let i = index ctx.syscalls name in
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      fun st l -> st.hooks.h_sys.(i) (Array.map (fun c -> c st l) cargs)
  | EBuiltin ("memcopy", [ d; s; n ]) ->
      let cd = cexpr ctx fc d and cs = cexpr ctx fc s and cn = cexpr ctx fc n in
      fun st l ->
        Wasm.Rt.Memory.copy st.mem ~dst:(cd st l) ~src:(cs st l) ~len:(cn st l);
        0
  | EBuiltin ("memfill", [ d; c; n ]) ->
      let cd = cexpr ctx fc d and cc = cexpr ctx fc c and cn = cexpr ctx fc n in
      fun st l ->
        Wasm.Rt.Memory.fill st.mem ~dst:(cd st l) ~byte:(cc st l) ~len:(cn st l);
        0
  | EBuiltin ("calli", target :: args) ->
      let ct = cexpr ctx fc target in
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      (* slot -> func index, resolved lazily because the callee may be
         compiled after this call site *)
      let inverse = Hashtbl.create 8 in
      let resolve slot =
        if Hashtbl.length inverse = 0 then
          Hashtbl.iter
            (fun f s -> Hashtbl.replace inverse s (Hashtbl.find ctx.func_idx f))
            ctx.l.fnptr_slots;
        Hashtbl.find_opt inverse slot
      in
      fun st l ->
        let slot = ct st l in
        let a = Array.map (fun c -> c st l) cargs in
        (match resolve slot with
        | Some fi -> st.funcs.(fi) st a
        | None -> error "calli: bad function pointer %d" slot)
  | EBuiltin (b, args) ->
      let i = index ctx.builtins b in
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      fun st l -> st.hooks.h_builtin.(i) (Array.map (fun c -> c st l) cargs)
  | EUnop (Neg, a) ->
      let c = cexpr ctx fc a in
      fun st l -> wrap (-c st l)
  | EUnop (Not, a) ->
      let c = cexpr ctx fc a in
      fun st l -> if c st l = 0 then 1 else 0
  | EUnop (Bnot, a) ->
      let c = cexpr ctx fc a in
      fun st l -> wrap (lnot (c st l))
  | EBinop (And, a, b) ->
      let ca = cexpr ctx fc a and cb = cexpr ctx fc b in
      fun st l -> if ca st l <> 0 && cb st l <> 0 then 1 else 0
  | EBinop (Or, a, b) ->
      let ca = cexpr ctx fc a and cb = cexpr ctx fc b in
      fun st l -> if ca st l <> 0 || cb st l <> 0 then 1 else 0
  | EBinop (op, a, b) -> cbinop ctx fc op a b
  | EAssign (l, r) -> cassign ctx fc l r
  | EIndex (p, i) ->
      let t = ty_of ctx fc e in
      let caddr = caddr_index ctx fc p i in
      fun st l -> load st.mem t (caddr st l)
  | EDeref p ->
      let t = ty_of ctx fc e in
      let cp = cexpr ctx fc p in
      fun st l -> load st.mem t (cp st l)
  | ECast (_, a) -> cexpr ctx fc a
  | ECond (c, a, b) ->
      let cc = cexpr ctx fc c and ca = cexpr ctx fc a and cb = cexpr ctx fc b in
      fun st l -> if cc st l <> 0 then ca st l else cb st l

and cbinop ctx fc op a b =
  let ta = ty_of ctx fc a and tb = ty_of ctx fc b in
  let ca = cexpr ctx fc a and cb = cexpr ctx fc b in
  let sa = elem_size ta and sb = elem_size tb in
  match (op, ta, tb) with
  | Add, TPtr _, _ -> fun st l -> wrap (ca st l + (cb st l * sa))
  | Add, _, TPtr _ -> fun st l -> wrap ((ca st l * sb) + cb st l)
  | Sub, TPtr _, (TInt | TChar) -> fun st l -> wrap (ca st l - (cb st l * sa))
  | Sub, TPtr _, TPtr _ -> fun st l -> (ca st l - cb st l) / sa
  | _ ->
      let f =
        match op with
        | Add -> fun x y -> wrap (x + y)
        | Sub -> fun x y -> wrap (x - y)
        | Mul -> fun x y -> wrap (x * y)
        | Div ->
            fun x y ->
              if y = 0 then error "native: division by zero" else wrap (x / y)
        | Mod ->
            fun x y ->
              if y = 0 then error "native: division by zero" else wrap (x mod y)
        | Shl -> fun x y -> wrap (x lsl (y land 31))
        | Shr -> fun x y -> wrap (x asr (y land 31))
        | Band -> fun x y -> x land y
        | Bor -> fun x y -> x lor y
        | Bxor -> fun x y -> x lxor y
        | Lt -> fun x y -> if x < y then 1 else 0
        | Le -> fun x y -> if x <= y then 1 else 0
        | Gt -> fun x y -> if x > y then 1 else 0
        | Ge -> fun x y -> if x >= y then 1 else 0
        | Eq -> fun x y -> if x = y then 1 else 0
        | Ne -> fun x y -> if x <> y then 1 else 0
        | And | Or -> assert false
      in
      fun st l -> f (ca st l) (cb st l)

and caddr_index ctx fc p i =
  let pt = ty_of ctx fc p in
  let sz = elem_size pt in
  let cp = cexpr ctx fc p and ci = cexpr ctx fc i in
  fun st l -> cp st l + (ci st l * sz)

and cassign ctx fc lhs rhs : st -> int array -> int =
  let cr = cexpr ctx fc rhs in
  match lhs with
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) ->
          fun st l ->
            let v = cr st l in
            l.(i) <- v;
            v
      | None ->
          let g = Mc_layout.global ctx.l n in
          if g.g_is_array then error "cannot assign to array %s" n;
          let addr = g.g_addr and t = g.g_ty in
          fun st l ->
            let v = cr st l in
            store st.mem t addr v;
            v)
  | EIndex (p, i) ->
      let t = ty_of ctx fc lhs in
      let caddr = caddr_index ctx fc p i in
      fun st l ->
        let a = caddr st l in
        let v = cr st l in
        store st.mem t a v;
        v
  | EDeref p ->
      let t = ty_of ctx fc lhs in
      let cp = cexpr ctx fc p in
      fun st l ->
        let a = cp st l in
        let v = cr st l in
        store st.mem t a v;
        v
  | _ -> error "not an lvalue"

let rec cstmt ctx fc (s : stmt) : st -> int array -> unit =
  match s with
  | SExpr e ->
      let c = cexpr ctx fc e in
      fun st l -> ignore (c st l)
  | SDecl (t, n, init) -> (
      let idx = fc.nlocals in
      fc.nlocals <- fc.nlocals + 1;
      Hashtbl.replace fc.locals n (idx, t);
      match init with
      | Some e ->
          let c = cexpr ctx fc e in
          fun st l -> l.(idx) <- c st l
      | None -> fun _ _ -> ())
  | SIf (c, t, e) ->
      let cc = cexpr ctx fc c in
      let ct = cblock ctx fc t and ce = cblock ctx fc e in
      fun st l -> if cc st l <> 0 then ct st l else ce st l
  | SWhile (c, body) ->
      let cc = cexpr ctx fc c in
      let cb = cblock ctx fc body in
      fun st l ->
        (try
           while cc st l <> 0 do
             st.hooks.h_poll ();
             st.steps <- st.steps + 1;
             try cb st l with Cnt -> ()
           done
         with Brk -> ())
  | SFor (init, cond, step, body) ->
      let ci = Option.map (cstmt ctx fc) init in
      let cc = Option.map (cexpr ctx fc) cond in
      let cs = Option.map (cexpr ctx fc) step in
      let cb = cblock ctx fc body in
      fun st l ->
        (match ci with Some c -> c st l | None -> ());
        (try
           while (match cc with Some c -> c st l <> 0 | None -> true) do
             st.hooks.h_poll ();
             st.steps <- st.steps + 1;
             (try cb st l with Cnt -> ());
             match cs with Some c -> ignore (c st l) | None -> ()
           done
         with Brk -> ())
  | SReturn None -> fun _ _ -> raise (Ret 0)
  | SReturn (Some e) ->
      let c = cexpr ctx fc e in
      fun st l -> raise (Ret (c st l))
  | SBreak -> fun _ _ -> raise Brk
  | SContinue -> fun _ _ -> raise Cnt
  | SBlock b -> cblock ctx fc b

and cblock ctx fc (b : stmt list) : st -> int array -> unit =
  let cs = Array.of_list (List.map (cstmt ctx fc) b) in
  fun st l ->
    for i = 0 to Array.length cs - 1 do
      cs.(i) st l
    done

type compiled = {
  nc_mem_image : string; (* initial data segment contents *)
  nc_heap_base : int;
  nc_funcs : (st -> int array -> int) array;
  nc_func_idx : (string, int) Hashtbl.t;
  nc_syscalls : string array; (* [hooks.h_sys.(i)] makes syscall [i] *)
  nc_builtins : string array; (* [hooks.h_builtin.(i)] runs builtin [i] *)
  nc_fnptr_slots : (string, int) Hashtbl.t;
  nc_main_params : int;
  nc_argc_addr : int option; (* __argc global *)
  nc_argv_addr : int option;
}

let compile (p : program) : compiled =
  let l = Mc_layout.create p in
  let ctx =
    { l; func_idx = Hashtbl.create 32; syscalls = sorted_names l.syscalls;
      builtins = sorted_names l.builtins }
  in
  let funcs = List.filter_map (function GFunc f -> Some f | _ -> None) p in
  List.iteri (fun i f -> Hashtbl.replace ctx.func_idx f.fn_name i) funcs;
  let compiled_funcs =
    Array.of_list
      (List.map
         (fun f ->
           let fc = { locals = Hashtbl.create 16; nlocals = List.length f.fn_params } in
           List.iteri (fun i (t, n) -> Hashtbl.replace fc.locals n (i, t)) f.fn_params;
           let body = cblock ctx fc f.fn_body in
           let nparams = List.length f.fn_params in
           let total = fc.nlocals in
           fun (st : st) (args : int array) ->
             let l = Array.make (max total 1) 0 in
             Array.blit args 0 l 0 (min (Array.length args) nparams);
             (try
                body st l;
                0
              with Ret v -> v))
         funcs)
  in
  let gaddr n =
    Option.map (fun g -> g.Mc_layout.g_addr) (Hashtbl.find_opt l.globals n)
  in
  {
    nc_mem_image = Mc_layout.image l;
    nc_heap_base = Mc_layout.heap_base l;
    nc_funcs = compiled_funcs;
    nc_func_idx = ctx.func_idx;
    nc_syscalls = ctx.syscalls;
    nc_builtins = ctx.builtins;
    nc_fnptr_slots = l.fnptr_slots;
    nc_main_params =
      (match Hashtbl.find_opt l.env.Mc_check.funcs "main" with
      | Some s -> List.length s.Mc_check.fs_params
      | None -> 0);
    nc_argc_addr = gaddr "__argc";
    nc_argv_addr = gaddr "__argv";
  }

(** Instantiate a compiled program over a fresh memory, with [hooks]
    bound to its syscall and builtin names. Used by the native runner. *)
let make_state (c : compiled) ~(mem : Wasm.Rt.Memory.t) ~(hooks : hooks) : st =
  Wasm.Rt.Memory.write_string mem ~addr:0 c.nc_mem_image;
  { mem; hooks; funcs = c.nc_funcs; steps = 0 }

let call (c : compiled) (st : st) (name : string) (args : int array) : int =
  match Hashtbl.find_opt c.nc_func_idx name with
  | Some i -> c.nc_funcs.(i) st args
  | None -> error "native: no function %s" name

let call_slot (c : compiled) (st : st) (slot : int) (args : int array) : int =
  let f =
    Hashtbl.fold
      (fun name s acc -> if s = slot then Some name else acc)
      c.nc_fnptr_slots None
  in
  match f with
  | Some name -> call c st name args
  | None -> error "native: bad function pointer %d" slot
