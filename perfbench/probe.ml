(** Direct probes of costs the traced run cannot separate.

    The Table 2 probe calls each syscall of the [syscall] mix three ways
    from the host, on a live process: through [Interface.traced_dispatch]
    (the whole host-function body: seccomp, Strace bookkeeping, the
    post-call signal poll), through [Interface.dispatch] (argument
    unmarshalling and address translation), and straight into the kernel
    function. The differences name the hook and the marshalling cost; the
    last is the kernel's own.

    The load probe decodes, compiles and instantiates binaries cold,
    outside the engine's compile cache, one stage at a time. *)

open Wasm

let now = Accountant.now

type variant = Traced | Dispatch | Direct

let variants = [ Traced; Dispatch; Direct ]

type op = {
  o_sys : string;
  o_prep : unit -> unit; (* untimed, before each batch *)
  o_call : variant -> int -> int; (* the [i]-th call of a batch *)
  o_ok : int -> bool; (* the result the call must give *)
}

let batch = 128

let probe_binary = lazy (Minic.to_wasm_binary "int main() { return 0; }")

let i64 n = Values.I64 (Int64.of_int n)

let ret = function Rt.H_return [ Values.I64 r ] -> Int64.to_int r | _ -> min_int

let unwrap = function Ok n -> n | Error e -> -Kernel.Errno.to_code e

(** The probe's metrics: [probe.<sys>.hook_ns], [.marshal_ns] and
    [.kernel_ns] per syscall, [probe.seccomp_ns], and whether every call
    returned what it must. Runs [rounds] rounds, each timing one batch per
    syscall and variant in turn, and reports medians over rounds. *)
let table2 ~rounds : (string * float) list * bool =
  let kernel = Kernel.Task.boot () in
  let eng = Wali.Engine.create kernel in
  let result = ref ([], false) in
  Fiber.run (fun () ->
      let p =
        Wali.Interface.spawn_init eng ~binary:(Lazy.force probe_binary)
          ~argv:[ "probe" ] ~env:[]
      in
      let m = Option.get p.Wali.Engine.pr_machine in
      let ctx = p.Wali.Engine.pr_sys in
      let mem () = Rt.memory0 m in
      let call v name args =
        match v with
        | Traced -> ret (Wali.Interface.traced_dispatch eng name m args)
        | Dispatch | Direct -> ret (Wali.Interface.dispatch eng name m args)
      in
      (* a scratch region of guest memory for buffers and the path *)
      let base =
        ret
          (Wali.Interface.dispatch eng "mmap" m
             [| i64 0; i64 65536; i64 3; i64 0x22; i64 (-1); i64 0 |])
      in
      let buf = base and statbuf = base + 256 and ts = base + 512 in
      let path_ptr = base + 1024 in
      Bytes.blit_string (Gen.data_path ^ "\000") 0 (mem ()).Rt.Memory.data path_ptr
        (String.length Gen.data_path + 1);
      let fs = kernel.Kernel.Task.fs in
      ignore (Kernel.Vfs.mkdir_p fs (Filename.dirname Gen.data_path));
      Kernel.Vfs.write_file fs Gen.data_path (String.make 4096 'x');
      let r, w = Result.get_ok (Kernel.Syscalls.pipe2 ctx ~flags:0) in
      let df =
        Result.get_ok
          (Kernel.Syscalls.openat ctx ~dirfd:Kernel.Syscalls.at_fdcwd
             ~path:Gen.data_path ~flags:2 ~mode:0)
      in
      let data = ref (mem ()).Rt.Memory.data in
      let refresh () = data := (mem ()).Rt.Memory.data in
      let simple sys args direct ok =
        { o_sys = sys; o_prep = refresh;
          o_call = (fun v _ -> match v with Direct -> direct () | _ -> call v sys args);
          o_ok = ok }
      in
      let len = 16 in
      let fds = Array.make batch 0 and maps = Array.make batch 0 in
      let close_args = Array.make batch [||] and unmap_args = Array.make batch [||] in
      let mm = p.Wali.Engine.pr_shared.Wali.Engine.ps_mmap in
      let task = p.Wali.Engine.pr_task in
      let ops =
        [
          simple "write" [| i64 w; i64 buf; i64 len |]
            (fun () -> unwrap (Kernel.Syscalls.write ctx ~fd:w ~buf:!data ~off:buf ~len))
            (( = ) len);
          simple "read" [| i64 r; i64 buf; i64 len |]
            (fun () -> unwrap (Kernel.Syscalls.read ctx ~fd:r ~buf:!data ~off:buf ~len))
            (( = ) len);
          simple "pread64" [| i64 df; i64 buf; i64 len; i64 128 |]
            (fun () ->
              unwrap (Kernel.Syscalls.pread64 ctx ~fd:df ~buf:!data ~off:buf ~len ~pos:128))
            (( = ) len);
          simple "pwrite64" [| i64 df; i64 buf; i64 len; i64 256 |]
            (fun () ->
              unwrap (Kernel.Syscalls.pwrite64 ctx ~fd:df ~buf:!data ~off:buf ~len ~pos:256))
            (( = ) len);
          {
            o_sys = "open";
            o_prep = refresh;
            o_call =
              (fun v i ->
                let fd =
                  match v with
                  | Direct ->
                      unwrap
                        (Kernel.Syscalls.openat ctx ~dirfd:Kernel.Syscalls.at_fdcwd
                           ~path:Gen.data_path ~flags:0 ~mode:0)
                  | _ -> call v "open" [| i64 path_ptr; i64 0; i64 0 |]
                in
                fds.(i) <- fd;
                fd);
            o_ok = (fun fd -> fd >= 0);
          };
          {
            o_sys = "close";
            o_prep = (fun () -> Array.iteri (fun i fd -> close_args.(i) <- [| i64 fd |]) fds);
            o_call =
              (fun v i ->
                match v with
                | Direct -> unwrap (Result.map (fun () -> 0) (Kernel.Syscalls.close ctx ~fd:fds.(i)))
                | _ -> call v "close" close_args.(i));
            o_ok = ( = ) 0;
          };
          simple "fstat" [| i64 df; i64 statbuf |]
            (fun () -> unwrap (Result.map (fun _ -> 0) (Kernel.Syscalls.fstat ctx ~fd:df)))
            (( = ) 0);
          simple "lseek" [| i64 df; i64 100; i64 0 |]
            (fun () -> unwrap (Kernel.Syscalls.lseek ctx ~fd:df ~offset:100 ~whence:0))
            (( = ) 100);
          simple "getpid" [||] (fun () -> Kernel.Syscalls.getpid ctx) (fun pid -> pid > 0);
          simple "clock_gettime" [| i64 1; i64 ts |]
            (fun () ->
              ignore (Kernel.Syscalls.clock_gettime ctx ~clock:1);
              0)
            (( = ) 0);
          {
            o_sys = "mmap";
            o_prep = refresh;
            o_call =
              (fun v i ->
                let a =
                  match v with
                  | Direct ->
                      let a =
                        unwrap
                          (Wali.Mmap_mgr.mmap mm ~mem:(mem ()) ~addr:0 ~len:4096 ~prot:3
                             ~flags:0x22 ~file:None)
                      in
                      Kernel.Task.charge_vm task 4096;
                      a
                  | _ -> call v "mmap" [| i64 0; i64 4096; i64 3; i64 0x22; i64 (-1); i64 0 |]
                in
                maps.(i) <- a;
                a);
            o_ok = (fun a -> a > 0);
          };
          {
            o_sys = "munmap";
            o_prep =
              (fun () -> Array.iteri (fun i a -> unmap_args.(i) <- [| i64 a; i64 4096 |]) maps);
            o_call =
              (fun v i ->
                match v with
                | Direct ->
                    let r =
                      Wali.Mmap_mgr.munmap mm ~mem:(mem ()) ~addr:maps.(i) ~len:4096
                    in
                    Kernel.Task.charge_vm task (-4096);
                    unwrap (Result.map (fun () -> 0) r)
                | _ -> call v "munmap" unmap_args.(i));
            o_ok = ( = ) 0;
          };
        ]
      in
      let times = Hashtbl.create 64 in
      let add key ns =
        Hashtbl.replace times key (ns :: Option.value (Hashtbl.find_opt times key) ~default:[])
      in
      let ok = ref true in
      for _ = 1 to rounds do
        List.iter
          (fun v ->
            List.iter
              (fun op ->
                op.o_prep ();
                let bad = ref 0 in
                let t0 = now () in
                for i = 0 to batch - 1 do
                  if not (op.o_ok (op.o_call v i)) then incr bad
                done;
                let t1 = now () in
                if !bad > 0 then ok := false;
                add (op.o_sys, v) (float_of_int (t1 - t0) /. float_of_int batch))
              ops)
          variants;
        let policy = eng.Wali.Engine.policy in
        let t0 = now () in
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (Wali.Seccomp.check policy "getpid"))
        done;
        add ("seccomp", Direct) (float_of_int (now () - t0) /. float_of_int batch)
      done;
      let med key = Sample.median (Array.of_list (Hashtbl.find times key)) in
      let per_sys =
        List.concat_map
          (fun op ->
            let tr = med (op.o_sys, Traced) and di = med (op.o_sys, Dispatch)
            and ke = med (op.o_sys, Direct) in
            let k s = Printf.sprintf "probe.%s.%s" op.o_sys s in
            [ (k "hook_ns", tr -. di); (k "marshal_ns", di -. ke); (k "kernel_ns", ke) ])
          ops
      in
      result := (per_sys @ [ ("probe.seccomp_ns", med ("seccomp", Direct)) ], !ok));
  !result

(** Cold decode, compile and instantiate host ns for [binaries], each
    summed over the binaries, with the engine's own compile options. *)
let load (binaries : (string * string) list) : int * int * int =
  let eng = Wali.Engine.create (Kernel.Task.boot ()) in
  let resolver = Wali.Interface.resolver eng in
  List.fold_left
    (fun (d, c, i) (name, binary) ->
      let t0 = now () in
      let md = Binary.decode ~name binary in
      let t1 = now () in
      let cm =
        Code.compile_module ~poll:eng.Wali.Engine.poll_scheme ~fuse:eng.Wali.Engine.fuse md
      in
      let t2 = now () in
      ignore (Sys.opaque_identity (Link.instantiate ~name resolver cm));
      let t3 = now () in
      (d + (t1 - t0), c + (t2 - t1), i + (t3 - t2)))
    (0, 0, 0) binaries
