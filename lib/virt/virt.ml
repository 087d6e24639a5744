(** The virtualization comparison harness (paper §4.3, Fig 8).

    One MiniC workload, four deployment methods:
    - [Native]  — host closures, no container (the reference);
    - [Docker]  — container create (layer materialization, namespaces)
                  then native execution inside it;
    - [Qemu]    — RV32 guest under pure interpretation;
    - [Wali]    — Wasm over the WALI engine.

    Each run reports wall-clock startup time, total time and peak memory,
    using the host monotonic clock for times and engine accounting for
    memory. *)

module Native_run = Native_run
module Rv_run = Rv_run

type method_ = M_native | M_docker | M_qemu | M_wali

let method_name = function
  | M_native -> "native"
  | M_docker -> "docker"
  | M_qemu -> "qemu"
  | M_wali -> "wali"

type measurement = {
  m_method : method_;
  m_startup_ns : int64; (* image build/instantiation before first insn *)
  m_total_ns : int64; (* startup + execution *)
  m_peak_mem : int; (* bytes: app + virtualization base *)
  m_status : int;
  m_output : string;
}

let now = Monotonic_clock.now

type workload = {
  w_name : string;
  w_source : string; (* MiniC *)
  w_argv : string list;
}

(* Pre-compiled artifacts so compile time (= paper's build time) is not
   charged to startup; what IS charged matches each technology:
   docker: container create; wali: decode+validate+instantiate;
   qemu: image load; native: nothing. *)
type prepared = {
  p_workload : workload;
  p_native : Minic.Mc_native.compiled;
  p_wasm_binary : string;
  p_rv : Minic.Mc_rv.rv_image;
}

let prepare (w : workload) : prepared =
  {
    p_workload = w;
    p_native = Minic.Mc_native.compile (Minic.parse_with_libc w.w_source);
    p_wasm_binary = Minic.to_wasm_binary w.w_source;
    p_rv = Minic.Mc_rv.compile (Minic.parse_with_libc w.w_source);
  }

(* ---- native ---- *)

let run_native (p : prepared) : measurement =
  let t0 = now () in
  let r = Native_run.run ~argv:p.p_workload.w_argv p.p_native in
  let t1 = now () in
  {
    m_method = M_native;
    m_startup_ns = 0L;
    m_total_ns = Int64.sub t1 t0;
    m_peak_mem = r.Native_run.r_vm_peak + 262144 (* resident image+stack *);
    m_status = r.Native_run.r_status;
    m_output = r.Native_run.r_output;
  }

(* ---- docker ---- *)

let run_docker (p : prepared) : measurement =
  let t0 = now () in
  let kernel = Kernel.Task.boot () in
  let startup = ref 0L and base_mem = ref 0 in
  let get = ref (fun () -> None) in
  Fiber.run (fun () ->
      (* docker run: create the container (materialize layers) first *)
      let img =
        Container.Image.image p.p_workload.w_name
          [
            Container.Image.base_rootfs ();
            Container.Image.app_layer ~name:p.p_workload.w_name
              ~binary:(String.make 200_000 'b') ();
          ]
      in
      let ct = Container.Runtime.create kernel ~name:p.p_workload.w_name img () in
      base_mem := Container.Runtime.base_memory ct;
      startup := Int64.sub (now ()) t0;
      (* then execute the entrypoint natively inside it *)
      get := Native_run.start ~kernel ~argv:p.p_workload.w_argv p.p_native;
      Option.iter (Container.Runtime.enter ct) (Kernel.Task.find kernel 1));
  let t1 = now () in
  match !get () with
  | Some r ->
      {
        m_method = M_docker;
        m_startup_ns = !startup;
        m_total_ns = Int64.sub t1 t0;
        m_peak_mem = r.Native_run.r_vm_peak + !base_mem;
        m_status = r.Native_run.r_status;
        m_output = Kernel.Task.console_output kernel;
      }
  | None -> failwith "docker run did not complete"

(* ---- qemu ---- *)

let run_qemu (p : prepared) : measurement =
  let t0 = now () in
  (* startup: load the guest image (cheap, like qemu-user) *)
  let mem_probe = Rv_run.load_image p.p_rv in
  let startup = Int64.sub (now ()) t0 in
  ignore mem_probe;
  let r = Rv_run.run ~argv:p.p_workload.w_argv p.p_rv in
  let t1 = now () in
  {
    m_method = M_qemu;
    m_startup_ns = startup;
    m_total_ns = Int64.sub t1 t0;
    m_peak_mem =
      r.Rv_run.r_vm_peak + (Rv_run.mem_pages * Wasm.Types.page_size / 8)
      (* guest pages touched + emulator structures, lazily allocated *);
    m_status = r.Rv_run.r_status;
    m_output = r.Rv_run.r_output;
  }

(* ---- wali ---- *)

let run_wali ?(poll_scheme = Wasm.Code.Poll_loops) (p : prepared) : measurement =
  let status = ref 0 and peak = ref 0 in
  let output = ref "" in
  let startup = ref 0L in
  let t0 = now () in
  Fiber.run (fun () ->
      let kernel = Kernel.Task.boot () in
      let eng = Wali.Engine.create ~poll_scheme kernel in
      (* startup = decode + validate/compile + instantiate, measured by
         the time until the init process is ready to execute *)
      let proc =
        Wali.Interface.spawn_init eng ~binary:p.p_wasm_binary
          ~argv:p.p_workload.w_argv ~env:[]
      in
      startup := Int64.sub (now ()) t0;
      eng.Wali.Engine.on_proc_exit <-
        Some
          (fun q st ->
            if q == proc then begin
              status := st;
              output := Kernel.Task.console_output kernel;
              peak :=
                (match q.Wali.Engine.pr_machine with
                | Some m ->
                    Wasm.Rt.Memory.size_bytes (Wasm.Rt.memory0 m)
                | None -> 0)
                + 300_000 (* engine structures *)
            end));
  let t1 = now () in
  {
    m_method = M_wali;
    m_startup_ns = !startup;
    m_total_ns = Int64.sub t1 t0;
    m_peak_mem = !peak;
    m_status = !status;
    m_output = !output;
  }

let run (p : prepared) (m : method_) : measurement =
  match m with
  | M_native -> run_native p
  | M_docker -> run_docker p
  | M_qemu -> run_qemu p
  | M_wali -> run_wali p

let all_methods = [ M_native; M_docker; M_qemu; M_wali ]
