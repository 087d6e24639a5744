(** WAZI: the thin kernel interface for Zephyr RTOS (paper §5.1),
    produced by applying the six-step recipe of §5:

    1. name-bind all syscalls — imports are ("wazi", <zephyr call name>)
       taken from the compiler-extracted encoding in
       {!Tables.Zephyr_tables};
    2. sandbox pointers — buffer arguments are translated/bounds-checked
       against the module's linear memory;
    3. portable layouts — Zephyr's encoding is already ISA-portable;
    4. process model — k_thread maps to instance-per-thread machines;
    5. memory — k_malloc cookies account against the kernel heap while
       storage stays inside linear memory;
    6. async — timers/semaphore wakeups land at the same safepoints WALI
       uses.

    Handlers for the implemented core are below; every other entry in the
    encoding becomes an auto-generated trap-on-call stub, mirroring how
    WAZI auto-generates >85% of the surface. *)

open Wasm

type t = {
  z : Zephyr.Zkernel.t;
  mutable trace : (string * int) list; (* call counts *)
  strings : Buffer.t; (* uart text staging *)
}

let create ?(z : Zephyr.Zkernel.t option) () : t =
  {
    z = (match z with Some z -> z | None -> Zephyr.Zkernel.create ());
    trace = [];
    strings = Buffer.create 64;
  }

let note t name =
  t.trace <-
    (match List.assoc_opt name t.trace with
    | Some n -> (name, n + 1) :: List.remove_assoc name t.trace
    | None -> (name, 1) :: t.trace)

let i32 v = Values.I32 (Int32.of_int v)

(* The per-call implementations over the Zephyr simulator. Each gets the
   calling machine (for address-space translation) and i32 args. *)
let dispatch (t : t) (name : string) (m : Rt.machine) (args : int array) :
    Rt.host_outcome =
  note t name;
  let z = t.z in
  let mem = Rt.memory0 m in
  let a i = if i < Array.length args then args.(i) else 0 in
  let ret v = Rt.H_return [ i32 v ] in
  let open Zephyr.Zkernel in
  match name with
  | "k_yield" ->
      k_yield ();
      ret 0
  | "k_sleep" ->
      k_sleep_ms (a 0);
      ret 0
  | "k_usleep" ->
      k_sleep_ms (max 1 (a 0 / 1000));
      ret 0
  | "k_uptime_ticks" -> ret (k_uptime_ms ())
  | "k_sem_init" -> ret (k_sem_init z ~count:(a 1) ~limit:(a 2))
  | "k_sem_take" -> ret (k_sem_take z ~handle:(a 0) ~timeout_ms:(a 1))
  | "k_sem_give" -> ret (k_sem_give z ~handle:(a 0))
  | "k_sem_count_get" -> ret (k_sem_count z ~handle:(a 0))
  | "k_mutex_init" -> ret (k_mutex_init z)
  | "k_mutex_lock" -> ret (k_mutex_lock z ~handle:(a 0))
  | "k_mutex_unlock" -> ret (k_mutex_unlock z ~handle:(a 0))
  | "k_msgq_init" -> ret (k_msgq_init z ~msg_size:(a 2) ~capacity:(a 3))
  | "k_msgq_put" -> (
      let size =
        match find_obj z (a 0) with
        | Some (O_msgq q) -> q.q_msg_size
        | _ -> 0
      in
      if size = 0 then ret (-22)
      else
        try
          let data = Bytes.of_string (Rt.Memory.read_string mem ~addr:(a 1) ~len:size) in
          ret (k_msgq_put z ~handle:(a 0) ~data ~timeout_ms:(a 2))
        with Rt.Memory.Bounds -> ret (-14))
  | "k_msgq_get" -> (
      match k_msgq_get z ~handle:(a 0) ~timeout_ms:(a 2) with
      | Ok data -> (
          try
            Rt.Memory.write_string mem ~addr:(a 1) (Bytes.to_string data);
            ret 0
          with Rt.Memory.Bounds -> ret (-14))
      | Error e -> ret e)
  | "k_timer_start" -> ret (k_timer_start z ~handle:(a 0) ~duration_ms:(a 1) ~period_ms:(a 2))
  | "k_timer_stop" -> ret (k_timer_stop z ~handle:(a 0))
  | "k_timer_status_get" -> ret (k_timer_status z ~handle:(a 0))
  | "k_timer_init" -> ret (k_timer_init z) (* convenience alias *)
  | "k_malloc" -> ret (k_malloc z (a 0))
  | "k_free" ->
      k_free z (a 0);
      ret 0
  | "gpio_pin_configure" -> ret (gpio_configure z ~pin:(a 1) ~output:(a 2 <> 0))
  | "gpio_pin_set" -> ret (gpio_set z ~pin:(a 1) ~value:(a 2))
  | "gpio_pin_get" -> ret (gpio_get z ~pin:(a 1))
  | "gpio_pin_toggle" -> ret (gpio_toggle z ~pin:(a 1))
  | "uart_poll_out" -> ret (uart_poll_out z (a 1))
  | "uart_poll_in" -> ret (-1) (* the simulated UART never receives a byte *)
  | "device_get_binding" -> ret 1 (* single board: handle 1 *)
  | "device_is_ready" -> ret 1
  | "sys_rand_get" -> (
      try
        let len = a 1 in
        Rt.Memory.check mem (a 0) len;
        sys_rand mem.Rt.Memory.data (a 0) len;
        ret 0
      with Rt.Memory.Bounds -> ret (-14))
  | "k_thread_join" -> ret (k_thread_join z ~tid:(a 0))
  | "k_thread_abort" -> ret (k_thread_abort z ~tid:(a 0))
  | _ ->
      (* auto-generated stub: the call exists in the encoding but targets
         a subsystem the interface does not virtualize *)
      Rt.H_trap (Printf.sprintf "WAZI: %s is an unimplemented subsystem stub" name)

(** k_thread_create needs the engine loop (instance-per-thread), so it is
    installed specially by {!resolver}. *)
let thread_create_host (t : t) : Rt.func_inst =
  Rt.Host_func
    {
      hf_name = "k_thread_create";
      hf_type =
        { Types.params = [ Types.T_i32; Types.T_i32 ]; results = [ Types.T_i32 ] };
      hf_fn =
        (fun m args ->
          let entry_idx = Int32.to_int (Values.as_i32 args.(0)) in
          let arg = Int32.to_int (Values.as_i32 args.(1)) in
          let f =
            if Array.length m.Rt.m_inst.Rt.i_tables = 0 then None
            else
              match Rt.Table.get m.Rt.m_inst.Rt.i_tables.(0) entry_idx with
              | Some fidx -> Some m.Rt.m_inst.Rt.i_funcs.(fidx)
              | None -> None
              | exception Values.Trap _ -> None
          in
          match f with
          | None -> Rt.H_return [ i32 (-22) ]
          | Some fn ->
              let tid =
                Zephyr.Zkernel.k_thread_create t.z ~name:"wasm" ~prio:5
                  (fun () ->
                    let tm = Rt.Machine.create m.Rt.m_inst in
                    tm.Rt.poll_hook <- m.Rt.poll_hook;
                    ignore (Interp.invoke tm fn [ i32 arg ]))
              in
              Rt.H_return [ i32 tid ]);
    }

(** The WAZI import resolver: every call in the Zephyr encoding resolves
    (implemented or stub), demonstrating the auto-generation claim. *)
let resolver (t : t) : Link.resolver =
 fun ~module_name ~name ->
  if module_name <> "wazi" then None
  else if name = "k_thread_create" then Some (Rt.E_func (thread_create_host t))
  else
    match
      List.find_opt
        (fun (e : Tables.Zephyr_tables.entry) -> e.Tables.Zephyr_tables.name = name)
        Tables.Zephyr_tables.all
    with
    | None -> None
    | Some entry ->
        let arity = entry.Tables.Zephyr_tables.arity in
        Some
          (Rt.E_func
             (Rt.Host_func
                {
                  hf_name = name;
                  hf_type =
                    { Types.params = List.init arity (fun _ -> Types.T_i32);
                      results = [ Types.T_i32 ] };
                  hf_fn =
                    (fun m args ->
                      dispatch t name m
                        (Array.map (fun v -> Int32.to_int (Values.as_i32 v)) args));
                }))

(** Run a Wasm module's [main] export on WAZI. Returns (result, wazi). *)
let run_module ?(wazi : t option) (binary : string) :
    Interp.run_result * t =
  let t = match wazi with Some t -> t | None -> create () in
  let m = Binary.decode ~name:"wazi-app" binary in
  let cm = Code.compile_module ~poll:Code.Poll_loops m in
  let result = ref (Interp.R_trap "did not run") in
  Fiber.run (fun () ->
      let inst, _ = Link.instantiate ~name:"wazi-app" (resolver t) cm in
      let mach = Rt.Machine.create inst in
      result := Interp.invoke mach (Rt.exported_func inst "main") []);
  (!result, t)
