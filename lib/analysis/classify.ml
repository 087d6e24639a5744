(** Import classification against the WALI naming convention of
    {!Wali.Spec}: [("wali", "SYS_" ^ name)] virtual syscalls, the
    argv/env support methods and [thread_spawn] (paper §3.4), and the
    WASI preview1 surface an application imports when it runs layered
    over the sandboxed adapter (Fig 1/Fig 6).

    Only [Syscall] imports are policy-relevant: they are the calls the
    engine routes through {!Wali.Seccomp.check}. *)

type kind =
  | Syscall of string (* ("wali", "SYS_x"): checked by the seccomp layer *)
  | Env_helper of string (* argv/env methods + thread_spawn: engine-internal *)
  | Wasi_call of string (* preview1 API, resolved by the WASI adapter *)
  | Host_other of string * string (* anything else (env.memory, custom hosts) *)

let wasi_modules = [ "wasi_snapshot_preview1"; "wasi_unstable" ]

let classify (imp : Wasm.Ast.import) : kind =
  let m = imp.Wasm.Ast.imp_module and n = imp.Wasm.Ast.imp_name in
  if m = Wali.Spec.import_module then
    if String.length n > 4 && String.sub n 0 4 = "SYS_" then
      Syscall (String.sub n 4 (String.length n - 4))
    else if n = "thread_spawn" || List.mem_assoc n Wali.Spec.env_methods then
      Env_helper n
    else Host_other (m, n)
  else if List.mem m wasi_modules then Wasi_call n
  else Host_other (m, n)

(** The classified function imports of a module, with their position in
    the function index space (imports precede local definitions). *)
let func_imports (m : Wasm.Ast.module_) :
    (int * Wasm.Ast.import * kind) list =
  List.mapi
    (fun i (imp, _ty) -> (i, imp, classify imp))
    (Wasm.Ast.imported_funcs m)
