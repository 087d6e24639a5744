(** qemu-user-style runner: executes an RV32 guest binary by pure
    interpretation, bridging guest ecalls to the simulated kernel — the
    "QEMU (no KVM)" side of the Fig 8 comparison.

    Like qemu-user, startup is cheap (load two flat segments, point the
    PC at _start); execution pays the per-instruction decode cost. fork
    IS supported: the guest machine state (registers + memory) is plain
    data, so the child is a structural clone. *)

open Kernel

type result = {
  r_status : int;
  r_output : string;
  r_vm_peak : int;
  r_insns : int64; (* guest instructions executed *)
}

let mem_pages = 512 (* 32 MiB guest address space *)

let load_image (img : Minic.Mc_rv.rv_image) : Wasm.Rt.Memory.t =
  let mem = Wasm.Rt.Memory.create ~min_pages:mem_pages ~max_pages:(mem_pages * 4) in
  Wasm.Rt.Memory.write_string mem ~addr:0 img.Minic.Mc_rv.rv_data;
  Wasm.Rt.Memory.write_string mem ~addr:img.Minic.Mc_rv.rv_code_base
    img.Minic.Mc_rv.rv_code;
  mem

(* A caught signal is dropped: a guest function pointer is a code
   address, and guest handlers are not modelled under emulation. *)
let catch _ _ _ = ()

(** Run [img] as [kernel]'s init task. Must be called inside
    {!Fiber.run}: it spawns the guest's fiber, and the getter it returns
    has the result once {!Fiber.run} has returned. *)
let start ~kernel ?(argv = [ "prog" ]) ?(env = []) (img : Minic.Mc_rv.rv_image) :
    unit -> result option =
  let eng = Wali.Engine.create kernel in
  let result = ref None in
  (* Launch one guest machine as one kernel task with process state
     [shared]; fork recurses. *)
  let rec launch (task : Task.t) (rv : Riscv.Rv_mach.t) shared : unit =
    let mem = rv.Riscv.Rv_mach.mem in
    let p, wmachine = Native_run.make_proc eng task mem shared in
    let fork _ =
      (* clone the guest: registers, memory and process state *)
      let child_task = Task.clone_task kernel task ~thread:false ~share_files:false in
      let crv =
        Riscv.Rv_mach.create ~mem:(Wasm.Rt.Memory.clone mem) ~entry:(rv.Riscv.Rv_mach.pc + 4)
          ~sp_init:0
      in
      Array.blit rv.Riscv.Rv_mach.regs 0 crv.Riscv.Rv_mach.regs 0 32;
      Riscv.Rv_mach.set crv Riscv.Rv_asm.a0 0;
      let cshared = Wali.Interface.fork_shared eng p.Wali.Engine.pr_shared in
      ignore
        (Fiber.spawn
           (Printf.sprintf "rv-pid%d" child_task.Task.tid)
           (fun () -> launch child_task crv cshared));
      child_task.Task.tgid
    in
    (* one handler per number, bound at launch *)
    let syscalls =
      Array.map
        (function
          | "fork" | "vfork" -> fork
          | name -> Native_run.syscall eng p wmachine ~catch name)
        Riscv.Rv_linux.names
    in
    let builtins =
      Array.map
        (function
          | "memcopy" ->
              fun a -> Wasm.Rt.Memory.copy mem ~dst:a.(0) ~src:a.(1) ~len:a.(2); 0
          | "memfill" ->
              fun a -> Wasm.Rt.Memory.fill mem ~dst:a.(0) ~byte:a.(1) ~len:a.(2); 0
          | b -> Native_run.builtin p mem b)
        Riscv.Rv_linux.builtins
    in
    let handler nr =
      let i = nr - Riscv.Rv_linux.first_nr and j = nr - Riscv.Rv_linux.first_builtin_nr in
      if i >= 0 && i < Array.length syscalls then syscalls.(i)
      else if j >= 0 && j < Array.length builtins then builtins.(j)
      else fun _ -> Native_run.enosys
    in
    let ecall (m : Riscv.Rv_mach.t) : unit =
      let arg i = Riscv.Rv_mach.get m (Riscv.Rv_asm.a0 + i) in
      let h = handler (Riscv.Rv_mach.get m Riscv.Rv_asm.a7) in
      Riscv.Rv_mach.set m Riscv.Rv_asm.a0 (h [| arg 0; arg 1; arg 2; arg 3; arg 4; arg 5 |])
    in
    let poll () =
      Fiber.yield ();
      Native_run.take_signals task ~catch
    in
    let status =
      try
        Riscv.Rv_mach.run rv ~ecall ~poll ~poll_interval:4096 ();
        Ktypes.wexit_status 0
      with
      | Native_run.Ended status -> status
      | Riscv.Rv_mach.Rv_trap msg ->
          ignore msg;
          Ktypes.wsignal_status Ktypes.sigsegv
    in
    Task.exit_task kernel task ~status;
    if !result = None && task.Task.ppid = 0 then
      result :=
        Some
          {
            r_status = status;
            r_output = "";
            r_vm_peak = task.Task.vm_peak;
            r_insns = rv.Riscv.Rv_mach.steps;
          }
  in
  let task = Task.make_init kernel ~comm:(List.hd argv) in
  Wali.Engine.setup_stdio eng task;
  let mem = load_image img in
  let rv =
    Riscv.Rv_mach.create ~mem ~entry:img.Minic.Mc_rv.rv_entry
      ~sp_init:img.Minic.Mc_rv.rv_sp_init
  in
  let shared =
    Native_run.fresh_shared eng ~heap_base:img.Minic.Mc_rv.rv_heap_base ~argv ~env
  in
  ignore (Fiber.spawn "rv-init" (fun () -> launch task rv shared));
  fun () -> !result

let run ?(argv = [ "prog" ]) ?(env = []) (img : Minic.Mc_rv.rv_image) : result =
  let kernel = Task.boot () in
  let get = ref (fun () -> None) in
  Fiber.run (fun () -> get := start ~kernel ~argv ~env img);
  match !get () with
  | Some r -> { r with r_output = Task.console_output kernel }
  | None -> failwith "rv run did not complete"
