(** The data layout every MiniC target shares (Wasm, native closures,
    RV32), so that one program sees the same addresses on all three:

    - globals from [data_base] in program order, each 4-aligned; an array
      takes its elements plus a 4-byte pad;
    - string literals after them, NUL-terminated and 4-aligned, interned
      lazily as a backend's code generation first meets each one (the
      backends meet them in different orders, so only addresses of
      globals are equal across targets);
    - function-pointer slots numbered from 2 in name order: 0 and 1 are
      SIG_DFL and SIG_IGN in sigaction handlers.

    The layout also carries the program's check environment and its
    import pre-scan. *)

open Mc_ast

type gsym = { g_addr : int; g_ty : ty; g_is_array : bool }

type t = {
  env : Mc_check.env;
  globals : (string, gsym) Hashtbl.t;
  strings : (string, int) Hashtbl.t;
  mutable data : (int * string) list; (* initialized bytes, newest first *)
  mutable data_end : int;
  syscalls : (string, int) Hashtbl.t; (* syscall name -> arity *)
  builtins : (string, int) Hashtbl.t; (* import builtin -> arity *)
  fnptrs : string list; (* sorted; slot of the i-th is i + 2 *)
  fnptr_slots : (string, int) Hashtbl.t;
}

let align4 n = (n + 3) land lnot 3

(** The ["wali"] import a MiniC builtin lowers to. *)
let builtin_import_name = function
  | "argc" -> "get_argc"
  | "argv_len" -> "get_argv_len"
  | "argv_copy" -> "copy_argv"
  | "envc" -> "get_envc"
  | "env_len" -> "get_env_len"
  | "env_copy" -> "copy_env"
  | "thread_spawn" -> "thread_spawn"
  | b -> error "unknown builtin import %s" b

(* ---- pre-scan: which imports / fnptrs does the program need? ---- *)

let rec scan_expr ~syscalls ~builtins ~fnptrs (e : expr) =
  let r = scan_expr ~syscalls ~builtins ~fnptrs in
  match e with
  | EInt _ | EStr _ | EVar _ | ESizeof _ -> ()
  | ECall (_, args) -> List.iter r args
  | ESyscall (n, args) ->
      Hashtbl.replace syscalls n (List.length args);
      List.iter r args
  | EBuiltin (b, args) ->
      (match b with
      | "argc" | "argv_len" | "argv_copy" | "envc" | "env_len" | "env_copy"
      | "thread_spawn" ->
          Hashtbl.replace builtins b (List.length args)
      | _ -> ());
      List.iter r args
  | EFnptr f -> Hashtbl.replace fnptrs f ()
  | EUnop (_, a) -> r a
  | EBinop (_, a, b) -> r a; r b
  | EAssign (a, b) -> r a; r b
  | EIndex (a, b) -> r a; r b
  | EDeref a -> r a
  | ECast (_, a) -> r a
  | ECond (a, b, c) -> r a; r b; r c

let rec scan_stmt ~syscalls ~builtins ~fnptrs (s : stmt) =
  let se = scan_expr ~syscalls ~builtins ~fnptrs in
  let sb = List.iter (scan_stmt ~syscalls ~builtins ~fnptrs) in
  match s with
  | SExpr e -> se e
  | SDecl (_, _, init) -> Option.iter se init
  | SIf (c, t, e) -> se c; sb t; sb e
  | SWhile (c, b) -> se c; sb b
  | SFor (i, c, st, b) ->
      Option.iter (scan_stmt ~syscalls ~builtins ~fnptrs) i;
      Option.iter se c;
      Option.iter se st;
      sb b
  | SReturn e -> Option.iter se e
  | SBreak | SContinue -> ()
  | SBlock b -> sb b

(** Check [p] and lay out its globals from [data_base]. *)
let create ?(data_base = 1024) (p : program) : t =
  let env = Mc_check.check p in
  let syscalls = Hashtbl.create 16
  and builtins = Hashtbl.create 8
  and fnptr_set = Hashtbl.create 8 in
  List.iter
    (function
      | GFunc f ->
          List.iter (scan_stmt ~syscalls ~builtins ~fnptrs:fnptr_set) f.fn_body
      | GVar _ | GArr _ -> ())
    p;
  let fnptrs = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) fnptr_set []) in
  let fnptr_slots = Hashtbl.create 8 in
  List.iteri (fun i n -> Hashtbl.replace fnptr_slots n (i + 2)) fnptrs;
  let l =
    { env; globals = Hashtbl.create 32; strings = Hashtbl.create 32; data = [];
      data_end = data_base; syscalls; builtins; fnptrs; fnptr_slots }
  in
  List.iter
    (function
      | GVar (t, n, init) ->
          let addr = l.data_end in
          l.data_end <- align4 (addr + size_of t);
          Hashtbl.replace l.globals n { g_addr = addr; g_ty = t; g_is_array = false };
          (match init with
          | Some v when v <> 0 ->
              let b = Bytes.create 4 in
              Bytes.set_int32_le b 0 (Int32.of_int v);
              l.data <- (addr, Bytes.to_string b) :: l.data
          | _ -> ())
      | GArr (t, n, count) ->
          let addr = l.data_end in
          l.data_end <- align4 (addr + (size_of t * count)) + 4;
          Hashtbl.replace l.globals n { g_addr = addr; g_ty = t; g_is_array = true }
      | GFunc _ -> ())
    p;
  l

(** The address of string literal [s], placed at the end of the data on
    first use. *)
let intern l s =
  match Hashtbl.find_opt l.strings s with
  | Some a -> a
  | None ->
      let a = l.data_end in
      l.data <- (a, s ^ "\000") :: l.data;
      l.data_end <- align4 (a + String.length s + 1);
      Hashtbl.replace l.strings s a;
      a

let global l n =
  match Hashtbl.find_opt l.globals n with
  | Some g -> g
  | None -> error "undefined variable %s" n

(** The type of variable [n], a local of [locals] or a global (an array
    reads as a pointer to its element). *)
let lookup_var l (locals : (string, int * ty) Hashtbl.t) n : ty =
  match Hashtbl.find_opt locals n with
  | Some (_, t) -> t
  | None ->
      let g = global l n in
      if g.g_is_array then TPtr g.g_ty else g.g_ty

let ty_of l locals e = Mc_check.ty_of (lookup_var l locals) l.env e

(** The data region's bytes from address 0 to its end. *)
let image l =
  let img = Bytes.make l.data_end '\000' in
  List.iter (fun (a, s) -> Bytes.blit_string s 0 img a (String.length s)) l.data;
  Bytes.to_string img

(** The first page boundary past the data: where the heap starts. *)
let heap_base l = (l.data_end + 4095) land lnot 4095
