(** Native-process runner: executes a MiniC program compiled to host
    closures as a kernel task — the "native" side of the Fig 8
    comparison and the execution engine inside containers.

    Syscall marshalling reuses the WALI dispatcher over the process's
    flat memory (the work a native libc does against the kernel ABI is
    the same translation); fork/exec are not supported in this backend
    because the host call stack is not cloneable — the benchmark
    workloads are single-process (documented in DESIGN.md). *)

open Kernel

exception Native_exit of int
exception Native_killed of int

type result = {
  r_status : int; (* packed wait status *)
  r_output : string;
  r_vm_peak : int;
  r_loop_steps : int;
}

let errno_of_name = Errno.to_code

(* Build the shared proc plumbing so Wali.Interface.dispatch can serve
   this task. *)
let make_proc eng (task : Task.t) (mem : Wasm.Rt.Memory.t) ~heap_base ~argv
    ~env : Wali.Engine.proc * Wasm.Rt.machine =
  let inst : Wasm.Rt.instance =
    {
      Wasm.Rt.i_name = "native";
      i_types = [||];
      i_funcs = [||];
      i_memories = [| mem |];
      i_tables = [||];
      i_globals = [||];
      i_exports = Hashtbl.create 1;
      i_codes = [||];
    }
  in
  let m = Wasm.Rt.Machine.create inst in
  m.Wasm.Rt.m_pid <- task.Task.tid;
  let shared =
    {
      Wali.Engine.ps_mmap = Wali.Mmap_mgr.create ~heap_base;
      ps_argv = Array.of_list argv;
      ps_env = Array.of_list env;
      ps_mem_id = Wali.Engine.fresh_mem_id eng;
      ps_brk = Wali.Mmap_mgr.align_up heap_base;
      ps_heap_base = heap_base;
      ps_binary = "";
    }
  in
  let p =
    {
      Wali.Engine.pr_task = task;
      pr_sys = Syscalls.make_ctx eng.Wali.Engine.kernel task eng.Wali.Engine.futexes;
      pr_shared = shared;
      pr_machine = Some m;
      pr_result = None;
    }
  in
  Wali.Engine.register_proc eng p;
  (p, m)

(* Deliver pending signals to a native task; handlers are MiniC functions
   resolved through the fnptr table. *)
let native_poll (c : Minic.Mc_native.compiled) (st : Minic.Mc_native.st)
    (task : Task.t) : unit =
  (match task.Task.group.Task.exiting with
  | Some status -> raise (Native_killed status)
  | None -> ());
  if Task.has_deliverable_signal task then begin
    match Task.next_signal task with
    | None -> ()
    | Some (signo, action) ->
        let open Ktypes in
        if action.sa_handler = sig_ign then ()
        else if action.sa_handler = sig_dfl then begin
          match default_disposition signo with
          | Ign | Cont | Stop -> ()
          | Term | Core -> raise (Native_killed (wsignal_status signo))
        end
        else begin
          let old = task.Task.sigmask in
          task.Task.sigmask <- Sigset.add (Sigset.union old action.sa_mask) signo;
          ignore (Minic.Mc_native.call_slot c st action.sa_handler [| signo |]);
          task.Task.sigmask <- old
        end
  end

(** Run [compiled] as a fresh kernel task. Must be called inside
    {!Fiber.run}; spawns its own fiber and returns a promise-like
    getter. *)
let start ?(kernel : Task.kernel option) ?(argv = [ "prog" ]) ?(env = [])
    ?(task : Task.t option) (c : Minic.Mc_native.compiled) :
    Task.kernel * (unit -> result option) =
  let kernel = match kernel with Some k -> k | None -> Task.boot () in
  let eng = Wali.Engine.create kernel in
  let task =
    match task with
    | Some t -> t
    | None ->
        let t = Task.make_init kernel ~comm:(List.hd argv) in
        Wali.Engine.setup_stdio eng t;
        t
  in
  let mem = Wasm.Rt.Memory.create ~min_pages:64 ~max_pages:2048 in
  let p, machine =
    make_proc eng task mem ~heap_base:c.Minic.Mc_native.nc_heap_base ~argv ~env
  in
  let result = ref None in
  let finish status st =
    Task.exit_task kernel task ~status;
    result :=
      Some
        {
          r_status = status;
          r_output = "";
          r_vm_peak = task.Task.vm_peak;
          r_loop_steps = st;
        }
  in
  let body () =
    let st_ref = ref None in
    let hooks =
      {
        Minic.Mc_native.h_sys =
          (fun name args ->
            match name with
            | "exit" | "exit_group" ->
                raise (Native_exit (if Array.length args > 0 then args.(0) else 0))
            | "fork" | "vfork" | "execve" | "clone" ->
                -errno_of_name Errno.ENOSYS
            | _ -> (
                let vals =
                  Array.map (fun v -> Wasm.Values.I64 (Int64.of_int v)) args
                in
                match Wali.Interface.dispatch eng name machine vals with
                | Wasm.Rt.H_return [ Wasm.Values.I64 r ] ->
                    let r = Int64.to_int r in
                    (r land 0xFFFFFFFF)
                    - (if r land 0x80000000 <> 0 then 0x100000000 else 0)
                | _ -> -errno_of_name Errno.ENOSYS))
        ;
        h_builtin =
          (fun b args ->
            match b with
            | "thread_spawn" -> -errno_of_name Errno.ENOSYS
            | _ ->
                let arg i = if i < Array.length args then args.(i) else 0 in
                Wali.Interface.argv_env
                  (Minic.Mc_wasm.builtin_import_name b)
                  p.Wali.Engine.pr_shared mem (arg 0) (arg 1));
        h_poll =
          (fun () ->
            match !st_ref with
            | Some st -> native_poll c st task
            | None -> ());
      }
    in
    let st = Minic.Mc_native.make_state c ~mem ~hooks in
    st_ref := Some st;
    let status =
      try
        if Hashtbl.mem c.Minic.Mc_native.nc_func_idx "__rt_init" then
          ignore (Minic.Mc_native.call c st "__rt_init" [||]);
        let margs =
          if c.Minic.Mc_native.nc_main_params = 0 then [||]
          else
            let ld a =
              Int32.to_int (Wasm.Rt.Memory.load32 mem a)
            in
            match (c.Minic.Mc_native.nc_argc_addr, c.Minic.Mc_native.nc_argv_addr) with
            | Some ac, Some av -> [| ld ac; ld av |]
            | _ -> [| 0; 0 |]
        in
        let code = Minic.Mc_native.call c st "main" margs in
        Ktypes.wexit_status code
      with
      | Native_exit code -> Ktypes.wexit_status code
      | Native_killed status -> status
    in
    finish status st.Minic.Mc_native.steps
  in
  ignore (Fiber.spawn ("native-" ^ task.Task.comm) body);
  (kernel, fun () -> !result)

(** One-shot convenience: boot kernel, run to completion. *)
let run ?(argv = [ "prog" ]) ?(env = []) (c : Minic.Mc_native.compiled) : result =
  let out = ref None in
  let kout = ref "" in
  Fiber.run (fun () ->
      let kernel, get = start ~argv ~env c in
      ignore
        (Fiber.spawn "native-waiter" (fun () ->
             (* runs after everything else drains; Fiber.run returns when
                all fibers finish *)
             ignore kernel));
      ignore get;
      (* capture at scheduler drain via a final closure *)
      let rec finalize () =
        match get () with
        | Some r ->
            out := Some r;
            kout := Task.console_output kernel
        | None ->
            Fiber.yield ();
            finalize ()
      in
      ignore (Fiber.spawn "native-finalize" finalize));
  match !out with
  | Some r -> { r with r_output = !kout }
  | None -> failwith "native run did not complete"
