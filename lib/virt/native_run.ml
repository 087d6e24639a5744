(** Native-process runner: executes a MiniC program compiled to host
    closures as a kernel task — the "native" side of the Fig 8
    comparison and the execution engine inside containers.

    Syscall marshalling reuses the WALI dispatcher over the process's
    flat memory (the work a native libc does against the kernel ABI is
    the same translation); fork/exec are not supported in this backend
    because the host call stack is not cloneable — the benchmark
    workloads are single-process (documented in DESIGN.md). *)

open Kernel

exception Ended of int (* packed wait status *)

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

(* Act on [task]'s pending signals as the kernel decides: a kill ends the
   run, and [catch signo action mask] runs each caught signal's handler. *)
let rec take_signals (task : Task.t) ~catch : unit =
  match Task.take_signal task with
  | Nothing -> ()
  | Kill (_, status) -> raise (Ended status)
  | Catch (signo, action, mask) ->
      catch signo action mask;
      take_signals task ~catch

(** Run [c] as [kernel]'s init task. Must be called inside {!Fiber.run}:
    it spawns the task's fiber, and the getter it returns has the result
    once {!Fiber.run} has returned. *)
let start ~kernel ?(argv = [ "prog" ]) ?(env = []) (c : Minic.Mc_native.compiled) :
    unit -> result option =
  let eng = Wali.Engine.create kernel in
  let task = Task.make_init kernel ~comm:(List.hd argv) in
  Wali.Engine.setup_stdio eng task;
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
    (* a handler is a MiniC function, found through its fnptr slot *)
    let catch signo (action : Ktypes.sigaction) mask =
      let old = task.Task.sigmask in
      task.Task.sigmask <- mask;
      Option.iter
        (fun st -> ignore (Minic.Mc_native.call_slot c st action.sa_handler [| signo |]))
        !st_ref;
      task.Task.sigmask <- old
    in
    let poll () = take_signals task ~catch in
    let hooks =
      {
        Minic.Mc_native.h_sys =
          (fun name args ->
            match name with
            | "exit" | "exit_group" ->
                raise
                  (Ended (Ktypes.wexit_status (if Array.length args > 0 then args.(0) else 0)))
            | "fork" | "vfork" | "execve" | "clone" ->
                -errno_of_name Errno.ENOSYS
            | _ -> (
                let vals =
                  Array.map (fun v -> Wasm.Values.I64 (Int64.of_int v)) args
                in
                let r =
                  match Wali.Interface.dispatch eng name machine vals with
                  | Wasm.Rt.H_return [ Wasm.Values.I64 r ] ->
                      let r = Int64.to_int r in
                      (r land 0xFFFFFFFF)
                      - (if r land 0x80000000 <> 0 then 0x100000000 else 0)
                  | _ -> -errno_of_name Errno.ENOSYS
                in
                (* signals take effect on the way back, as under Linux *)
                poll ();
                r))
        ;
        h_builtin =
          (fun b args ->
            match b with
            | "thread_spawn" -> -errno_of_name Errno.ENOSYS
            | _ ->
                let arg i = if i < Array.length args then args.(i) else 0 in
                Wali.Interface.argv_env
                  (Minic.Mc_layout.builtin_import_name b)
                  p.Wali.Engine.pr_shared mem (arg 0) (arg 1));
        h_poll = poll;
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
      with Ended status -> status
    in
    finish status st.Minic.Mc_native.steps
  in
  ignore (Fiber.spawn ("native-" ^ task.Task.comm) body);
  fun () -> !result

(** One-shot convenience: boot a kernel and run [c] to completion. *)
let run ?(argv = [ "prog" ]) ?(env = []) (c : Minic.Mc_native.compiled) : result =
  let kernel = Task.boot () in
  let get = ref (fun () -> None) in
  Fiber.run (fun () -> get := start ~kernel ~argv ~env c);
  match !get () with
  | Some r -> { r with r_output = Task.console_output kernel }
  | None -> failwith "native run did not complete"
