(** Native-process runner: executes a MiniC program compiled to host
    closures as a kernel task — the "native" side of the Fig 8
    comparison and the execution engine inside containers.

    A syscall crosses through {!Wali.Interface.bridge}, bound once per
    name over the process's flat memory (the work a native libc does
    against the kernel ABI is the same translation). fork/exec are not
    supported in this backend because the host call stack is not
    cloneable — the benchmark workloads are single-process (documented in
    DESIGN.md). The bindings below are shared with the RV32 runner. *)

open Kernel

exception Ended of int (* packed wait status *)

type result = {
  r_status : int; (* packed wait status *)
  r_output : string;
  r_vm_peak : int;
  r_loop_steps : int;
}

let enosys = -Errno.to_code Errno.ENOSYS

(** Register [task], running over [mem] with process state [shared], as a
    process the bridge can serve; the machine is where the bridge writes
    a call's arguments. *)
let make_proc eng (task : Task.t) (mem : Wasm.Rt.Memory.t) shared :
    Wali.Engine.proc * Wasm.Rt.machine =
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

(** A new process's state: [argv], [env] and no mappings over [heap_base]. *)
let fresh_shared eng ~heap_base ~argv ~env : Wali.Engine.pshared =
  {
    Wali.Engine.ps_mmap = Wali.Mmap_mgr.create ~heap_base;
    ps_argv = Array.of_list argv;
    ps_env = Array.of_list env;
    ps_mem_id = Wali.Engine.fresh_mem_id eng;
    ps_brk = Wali.Mmap_mgr.align_up heap_base;
    ps_heap_base = heap_base;
    ps_binary = "";
  }

(* Act on [task]'s pending signals as the kernel decides: a kill ends the
   run, and [catch signo action mask] runs each caught signal's handler. *)
let rec take_signals (task : Task.t) ~catch : unit =
  match Task.take_signal task with
  | Nothing -> ()
  | Kill (_, status) -> raise (Ended status)
  | Catch (signo, action, mask) ->
      catch signo action mask;
      take_signals task ~catch

(** Syscall [name] for process [p] on machine [m], bound once. exit and
    exit_group end the run; other process control is the bridge's
    -ENOSYS. Signals take effect on the way back, as under Linux, and the
    result is the i32 the guest reads. *)
let syscall eng (p : Wali.Engine.proc) m ~catch (name : string) : int array -> int =
  match name with
  | "exit" | "exit_group" ->
      fun args -> raise (Ended (Ktypes.wexit_status (if Array.length args > 0 then args.(0) else 0)))
  | _ ->
      let call = Wali.Interface.bridge eng p m name in
      fun args ->
        let r = call args in
        take_signals p.Wali.Engine.pr_task ~catch;
        Minic.Mc_native.wrap r

(** MiniC builtin [b] for process [p] over [mem], bound once: an argv/env
    method, WALI's own; thread_spawn is -ENOSYS. *)
let builtin (p : Wali.Engine.proc) mem (b : string) : int array -> int =
  match b with
  | "thread_spawn" -> fun _ -> enosys
  | _ ->
      let f = Wali.Interface.argv_env (Minic.Mc_layout.builtin_import_name b) in
      fun args ->
        let n = Array.length args in
        f p.Wali.Engine.pr_shared mem (if n > 0 then args.(0) else 0) (if n > 1 then args.(1) else 0)

(** Run [c] as [kernel]'s init task. Must be called inside {!Fiber.run}:
    it spawns the task's fiber, and the getter it returns has the result
    once {!Fiber.run} has returned. *)
let start ~kernel ?(argv = [ "prog" ]) ?(env = []) (c : Minic.Mc_native.compiled) :
    unit -> result option =
  let eng = Wali.Engine.create kernel in
  let task = Task.make_init kernel ~comm:(List.hd argv) in
  Wali.Engine.setup_stdio eng task;
  let mem = Wasm.Rt.Memory.create ~min_pages:64 ~max_pages:2048 in
  let heap_base = c.Minic.Mc_native.nc_heap_base in
  let p, machine = make_proc eng task mem (fresh_shared eng ~heap_base ~argv ~env) in
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
    let hooks =
      {
        Minic.Mc_native.h_sys =
          Array.map (syscall eng p machine ~catch) c.Minic.Mc_native.nc_syscalls;
        h_builtin = Array.map (builtin p mem) c.Minic.Mc_native.nc_builtins;
        h_poll = (fun () -> take_signals task ~catch);
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
