(** WAZI: the thin kernel interface for Zephyr RTOS (paper §5.1),
    produced by applying the six-step recipe of §5:

    1. name-bind all syscalls — imports are ("wazi", <zephyr call name>)
       taken from the compiler-extracted encoding in
       {!Tables.Zephyr_tables}, each bound to its handler at link time;
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

type t = { z : Zephyr.Zkernel.t }

let create ?(z : Zephyr.Zkernel.t option) () : t =
  { z = (match z with Some z -> z | None -> Zephyr.Zkernel.create ()) }

(* k_thread_create's entry is a table slot; its thread runs the function
   there on a machine of its own over the caller's instance. *)
let thread_create z (m : Rt.machine) ~entry_idx ~arg : int =
  let f =
    if Array.length m.Rt.m_inst.Rt.i_tables = 0 then None
    else
      match Rt.Table.get m.Rt.m_inst.Rt.i_tables.(0) entry_idx with
      | Some fidx -> Some m.Rt.m_inst.Rt.i_funcs.(fidx)
      | None -> None
      | exception Values.Trap _ -> None
  in
  match f with
  | None -> -22
  | Some fn ->
      Zephyr.Zkernel.k_thread_create z ~name:"wasm" ~prio:5 (fun () ->
          let tm = Rt.Machine.create m.Rt.m_inst in
          tm.Rt.poll_hook <- m.Rt.poll_hook;
          ignore (Interp.invoke tm fn [ Values.I32 (Int32.of_int arg) ]))

(** The handler of call [name] over the Zephyr simulator, bound at link
    time: [h m a] gets the calling machine (for address-space
    translation) and [a i], its i-th i32 argument. A call the interface
    does not virtualize is an auto-generated stub that traps. *)
let handler (t : t) (name : string) : Rt.machine -> (int -> int) -> int =
  let z = t.z in
  let open Zephyr.Zkernel in
  match name with
  | "k_thread_create" -> fun m a -> thread_create z m ~entry_idx:(a 0) ~arg:(a 1)
  | "k_yield" -> fun _ _ -> k_yield (); 0
  | "k_sleep" -> fun _ a -> k_sleep_ms (a 0); 0
  | "k_usleep" -> fun _ a -> k_sleep_ms (max 1 (a 0 / 1000)); 0
  | "k_uptime_ticks" -> fun _ _ -> k_uptime_ms ()
  | "k_sem_init" -> fun _ a -> k_sem_init z ~count:(a 1) ~limit:(a 2)
  | "k_sem_take" -> fun _ a -> k_sem_take z ~handle:(a 0) ~timeout_ms:(a 1)
  | "k_sem_give" -> fun _ a -> k_sem_give z ~handle:(a 0)
  | "k_sem_count_get" -> fun _ a -> k_sem_count z ~handle:(a 0)
  | "k_mutex_init" -> fun _ _ -> k_mutex_init z
  | "k_mutex_lock" -> fun _ a -> k_mutex_lock z ~handle:(a 0)
  | "k_mutex_unlock" -> fun _ a -> k_mutex_unlock z ~handle:(a 0)
  | "k_msgq_init" -> fun _ a -> k_msgq_init z ~msg_size:(a 2) ~capacity:(a 3)
  | "k_msgq_put" -> (
      fun m a ->
        let size = match find_obj z (a 0) with Some (O_msgq q) -> q.q_msg_size | _ -> 0 in
        if size = 0 then -22
        else
          try
            let data = Bytes.of_string (Rt.Memory.read_string (Rt.memory0 m) ~addr:(a 1) ~len:size) in
            k_msgq_put z ~handle:(a 0) ~data ~timeout_ms:(a 2)
          with Rt.Memory.Bounds -> -14)
  | "k_msgq_get" -> (
      fun m a ->
        match k_msgq_get z ~handle:(a 0) ~timeout_ms:(a 2) with
        | Ok data -> (
            try
              Rt.Memory.write_string (Rt.memory0 m) ~addr:(a 1) (Bytes.to_string data);
              0
            with Rt.Memory.Bounds -> -14)
        | Error e -> e)
  | "k_timer_start" -> fun _ a -> k_timer_start z ~handle:(a 0) ~duration_ms:(a 1) ~period_ms:(a 2)
  | "k_timer_stop" -> fun _ a -> k_timer_stop z ~handle:(a 0)
  | "k_timer_status_get" -> fun _ a -> k_timer_status z ~handle:(a 0)
  | "k_malloc" -> fun _ a -> k_malloc z (a 0)
  | "k_free" -> fun _ a -> k_free z (a 0); 0
  | "gpio_pin_configure" -> fun _ a -> gpio_configure z ~pin:(a 1) ~output:(a 2 <> 0)
  | "gpio_pin_set" -> fun _ a -> gpio_set z ~pin:(a 1) ~value:(a 2)
  | "gpio_pin_get" -> fun _ a -> gpio_get z ~pin:(a 1)
  | "gpio_pin_toggle" -> fun _ a -> gpio_toggle z ~pin:(a 1)
  | "uart_poll_out" -> fun _ a -> uart_poll_out z (a 1)
  | "uart_poll_in" -> fun _ _ -> -1 (* the simulated UART never receives a byte *)
  | "device_get_binding" -> fun _ _ -> 1 (* single board: handle 1 *)
  | "device_is_ready" -> fun _ _ -> 1
  | "sys_rand_get" -> (
      fun m a ->
        let mem = Rt.memory0 m and len = a 1 in
        try
          Rt.Memory.check mem (a 0) len;
          sys_rand mem.Rt.Memory.data (a 0) len;
          0
        with Rt.Memory.Bounds -> -14)
  | "k_thread_join" -> fun _ a -> k_thread_join z ~tid:(a 0)
  | "k_thread_abort" -> fun _ a -> k_thread_abort z ~tid:(a 0)
  | _ ->
      (* auto-generated stub: the call exists in the encoding but targets
         a subsystem the interface does not virtualize *)
      fun _ _ -> Values.trap "WAZI: %s is an unimplemented subsystem stub" name

(** The WAZI import resolver: every call in the Zephyr encoding resolves
    (implemented or stub), demonstrating the auto-generation claim. Each
    is a slot call that reads its i32 arguments where they stand and
    returns an i32. *)
let resolver (t : t) : Link.resolver =
 fun ~module_name ~name ->
  if module_name <> "wazi" then None
  else
    List.find_opt
      (fun (e : Tables.Zephyr_tables.entry) -> e.Tables.Zephyr_tables.name = name)
      Tables.Zephyr_tables.all
    |> Option.map (fun (e : Tables.Zephyr_tables.entry) ->
           (* k_thread_create takes the entry's table slot and its argument *)
           let arity = if name = "k_thread_create" then 2 else e.Tables.Zephyr_tables.arity in
           let h = handler t name in
           let ty =
             { Types.params = List.init arity (fun _ -> Types.T_i32); results = [ Types.T_i32 ] }
           in
           Rt.E_func
             (Rt.host_slot ~name ty (fun m base ->
                  Int32.to_int (Int32.of_int (h m (fun i -> Interp.slot_i m (base + i)))))))

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
