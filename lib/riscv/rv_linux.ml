(** Guest syscall numbering for the RV32 target.

    Numbers are assigned from the Linux syscall table in
    {!Tables.Linux_tables} (a stable, riscv-present-first ordering) —
    illustrating exactly the cross-ISA numbering divergence that WALI's
    name binding sidesteps (paper §3.5). Numbers from 6000 are the
    emulation-control calls the guest startup shim uses (argv/env
    transfer), mirroring how qemu-user implements auxv, and the memory
    builtins. *)

(** The syscall numbered [first_nr + i] is [names.(i)]. *)
let first_nr = 64

let names : string array =
  Array.of_list
    (List.map (fun (e : Tables.Linux_tables.entry) -> e.Tables.Linux_tables.name)
       Tables.Linux_tables.all)

let nr_of_name (name : string) : int option =
  Option.map (( + ) first_nr) (Array.find_index (String.equal name) names)

(** Emulation-control calls (not Linux syscalls): builtin [builtins.(i)]
    is number [first_builtin_nr + i]. *)
let first_builtin_nr = 6000

let builtins =
  [| "argc"; "argv_len"; "argv_copy"; "envc"; "env_len"; "env_copy"; "memcopy"; "memfill" |]

let builtin_nr b =
  match Array.find_index (String.equal b) builtins with
  | Some i -> first_builtin_nr + i
  | None -> raise (Rv_mach.Rv_trap ("no RV lowering for builtin " ^ b))
