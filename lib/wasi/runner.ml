(** Launch a WASI application over the layered adapter (Fig 1):

    engine TCB = the thin WALI interface
      -> adapter module (sandboxed Wasm, imports "wali")
         -> application module (imports "wasi_snapshot_preview1")

    The application and adapter share one linear memory created by the
    engine and imported by both ("env", "memory"). *)

open Wasm
open Kernel

let preview1 = "wasi_snapshot_preview1"

(** Instantiate adapter + app, wire them, and run the app's _start as a
    WALI process. Returns (status, console output). *)
let run ?(kernel : Task.kernel option) ?(poll_scheme = Code.Poll_loops)
    ?(trace : Wali.Strace.t option) ~(app_binary : string)
    ~(argv : string list) ~(env : string list) () : int * string =
  let kernel = match kernel with Some k -> k | None -> Task.boot () in
  let trace = match trace with Some t -> t | None -> Wali.Strace.create () in
  let eng = Wali.Engine.create ~poll_scheme ~trace kernel in
  let status = ref 0 in
  Fiber.run (fun () ->
      let task = Task.make_init kernel ~comm:(List.hd argv) in
      Wali.Engine.setup_stdio eng task;
      (* fd 3: the preopened root directory, as WASI libcs expect *)
      let sys = Syscalls.make_ctx kernel task eng.Wali.Engine.futexes in
      (match
         Syscalls.openat sys ~dirfd:Syscalls.at_fdcwd ~path:"/"
           ~flags:Ktypes.o_rdonly ~mode:0
       with
      | Ok 3 -> ()
      | Ok fd -> failwith (Printf.sprintf "preopen landed on fd %d" fd)
      | Error e -> failwith (Errno.to_string e));
      (* the shared linear memory *)
      let memory = Rt.Memory.create ~min_pages:32 ~max_pages:1024 in
      let mem_resolver : Link.resolver =
       fun ~module_name ~name ->
        if module_name = "env" && name = "memory" then Some (Rt.E_memory memory)
        else None
      in
      (* adapter: wali + env.memory *)
      let adapter_cm =
        Code.compile_module ~poll:poll_scheme (Adapter.build_module ())
      in
      let adapter_inst, _ =
        Link.instantiate ~name:"wasi-adapter"
          Link.(Wali.Interface.resolver eng <+> mem_resolver)
          adapter_cm
      in
      (* app: preview1 (from the adapter's exports) + env.memory *)
      let adapter_resolver : Link.resolver =
       fun ~module_name ~name ->
        if module_name = preview1 then
          Hashtbl.find_opt adapter_inst.Rt.i_exports name
        else None
      in
      let app_cm =
        Code.compile_module ~poll:poll_scheme (Binary.decode app_binary)
      in
      let app_inst, _ =
        Link.instantiate ~name:"wasi-app"
          Link.(adapter_resolver <+> mem_resolver)
          app_cm
      in
      let m = Wali.Engine.new_machine eng app_inst ~task in
      let shared =
        Wali.Engine.make_pshared eng ~inst:app_inst ~argv ~env ~binary:app_binary
      in
      let p =
        Wali.Interface.start eng task shared m ~fiber:"wasi-app"
          ~entry:(Some (Rt.exported_func app_inst "_start")) ~args:[]
      in
      eng.Wali.Engine.on_proc_exit <-
        Some (fun q st -> if q == p then status := st));
  (!status, Task.console_output kernel)
