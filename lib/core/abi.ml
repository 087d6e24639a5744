(** Address-space translation and ISA-portable layout (ABI) conversion
    (paper §3.2, §3.5).

    WALI syscalls are zero-copy wherever possible: buffer arguments are
    translated to (bounds-checked) views of the Wasm linear memory and
    handed straight to the kernel. The handful of struct-typed arguments
    (kstat, iovec, timespec, sigaction, pollfd, dirent64, sockaddr) use
    WALI's dedicated portable layouts defined here; the MiniC libc is
    written against the same offsets. *)

open Wasm

exception Efault
(** Raised when a guest pointer fails translation; the dispatcher maps it
    to -EFAULT, like the kernel. *)

type mem = Rt.Memory.t

let check (m : mem) addr len =
  if addr < 0 || len < 0 || addr + len > Rt.Memory.size_bytes m then raise Efault

(** Translate a guest buffer of [len] bytes at [addr] to a host view:
    the backing [Bytes.t], in which the buffer starts at offset [addr]
    once this check passes. This is the zero-copy path. *)
let bytes (m : mem) ~addr ~len : Bytes.t =
  check m addr len;
  m.Rt.Memory.data

let u8 (m : mem) addr = check m addr 1; Char.code (Bytes.get m.Rt.Memory.data addr)
let u16 (m : mem) addr = check m addr 2; Bytes.get_uint16_le m.Rt.Memory.data addr
let i32 (m : mem) addr = check m addr 4; Bytes.get_int32_le m.Rt.Memory.data addr
let i64 (m : mem) addr = check m addr 8; Bytes.get_int64_le m.Rt.Memory.data addr
let u32i (m : mem) addr = Int32.to_int (i32 m addr) land 0xFFFFFFFF

let set_u8 (m : mem) addr v = check m addr 1; Bytes.set_uint8 m.Rt.Memory.data addr (v land 0xff)
let set_u16 (m : mem) addr v = check m addr 2; Bytes.set_uint16_le m.Rt.Memory.data addr (v land 0xffff)
let set_i32 (m : mem) addr v = check m addr 4; Bytes.set_int32_le m.Rt.Memory.data addr v
let set_i64 (m : mem) addr v = check m addr 8; Bytes.set_int64_le m.Rt.Memory.data addr v
let set_i32i (m : mem) addr v = set_i32 m addr (Int32.of_int v)

let cstring (m : mem) addr : string =
  try Rt.Memory.read_cstring m ~addr with Rt.Memory.Bounds -> raise Efault

let write_bytes (m : mem) addr (s : string) =
  check m addr (String.length s);
  Bytes.blit_string s 0 m.Rt.Memory.data addr (String.length s)

(** Write a NUL-terminated string, truncating to [max] (incl. NUL). *)
let write_cstring (m : mem) addr ?max:limit s =
  let s =
    match limit with
    | Some mx when String.length s >= mx -> String.sub s 0 (max 0 (mx - 1))
    | _ -> s
  in
  write_bytes m addr s;
  set_u8 m (addr + String.length s) 0

(* ------------------------------------------------------------------ *)
(* iovec: { base : u32; len : u32 }                                     *)
(* ------------------------------------------------------------------ *)

let iovec_size = 8

let read_iovecs (m : mem) ~iov ~cnt : (int * int) list =
  if cnt < 0 || cnt > 1024 then raise Efault;
  List.init cnt (fun i ->
      let base = u32i m (iov + (i * iovec_size)) in
      let len = u32i m (iov + (i * iovec_size) + 4) in
      check m base len;
      (base, len))

(* ------------------------------------------------------------------ *)
(* kstat: WALI's dedicated portable layout (112 bytes)                  *)
(* ------------------------------------------------------------------ *)

let kstat_size = 112

let write_kstat (m : mem) addr (st : Kernel.Ktypes.stat) =
  check m addr kstat_size;
  let open Kernel.Ktypes in
  set_i64 m addr (Int64.of_int st.st_dev);
  set_i64 m (addr + 8) (Int64.of_int st.st_ino);
  set_i32i m (addr + 16) st.st_mode;
  set_i32i m (addr + 20) st.st_nlink;
  set_i32i m (addr + 24) st.st_uid;
  set_i32i m (addr + 28) st.st_gid;
  set_i64 m (addr + 32) (Int64.of_int st.st_rdev);
  set_i64 m (addr + 40) st.st_size;
  set_i32i m (addr + 48) st.st_blksize;
  set_i32i m (addr + 52) 0;
  set_i64 m (addr + 56) st.st_blocks;
  let times base ns =
    set_i64 m base (Int64.div ns 1_000_000_000L);
    set_i64 m (base + 8) (Int64.rem ns 1_000_000_000L)
  in
  times (addr + 64) st.st_atime_ns;
  times (addr + 80) st.st_mtime_ns;
  times (addr + 96) st.st_ctime_ns

(* ------------------------------------------------------------------ *)
(* timespec: { sec : i64; nsec : i64 }                                  *)
(* ------------------------------------------------------------------ *)

let read_timespec_ns (m : mem) addr : int64 =
  let sec = i64 m addr and nsec = i64 m (addr + 8) in
  Int64.add (Int64.mul sec 1_000_000_000L) nsec

let write_timespec (m : mem) addr ~ns =
  set_i64 m addr (Int64.div ns 1_000_000_000L);
  set_i64 m (addr + 8) (Int64.rem ns 1_000_000_000L)

let write_timeval (m : mem) addr ~ns =
  set_i64 m addr (Int64.div ns 1_000_000_000L);
  set_i64 m (addr + 8) (Int64.div (Int64.rem ns 1_000_000_000L) 1_000L)

(* ------------------------------------------------------------------ *)
(* sigaction (WALI portable): { handler:u32; flags:u32; mask:u64 }      *)
(* ------------------------------------------------------------------ *)

let sigaction_size = 16

let read_sigaction (m : mem) addr : Kernel.Ktypes.sigaction =
  {
    Kernel.Ktypes.sa_handler = u32i m addr;
    sa_flags = u32i m (addr + 4);
    sa_mask = i64 m (addr + 8);
  }

let write_sigaction (m : mem) addr (a : Kernel.Ktypes.sigaction) =
  set_i32i m addr a.Kernel.Ktypes.sa_handler;
  set_i32i m (addr + 4) a.Kernel.Ktypes.sa_flags;
  set_i64 m (addr + 8) a.Kernel.Ktypes.sa_mask

(* ------------------------------------------------------------------ *)
(* pollfd: { fd:i32; events:u16; revents:u16 }                          *)
(* ------------------------------------------------------------------ *)

let pollfd_size = 8

let read_pollfds (m : mem) ~addr ~cnt : (int * int) list =
  if cnt < 0 || cnt > 4096 then raise Efault;
  List.init cnt (fun i ->
      let base = addr + (i * pollfd_size) in
      (Int32.to_int (i32 m base), u16 m (base + 4)))

let write_revents (m : mem) ~addr (revents : int list) =
  List.iteri
    (fun i r -> set_u16 m (addr + (i * pollfd_size) + 6) r)
    revents

(* ------------------------------------------------------------------ *)
(* dirent64: { ino:u64; off:i64; reclen:u16; type:u8; name[] }          *)
(* ------------------------------------------------------------------ *)

(** Pack directory entries into [buf..buf+len); returns bytes written and
    the number of entries consumed. *)
let write_dirents (m : mem) ~buf ~len (entries : (string * int * int) list) :
    int * int =
  let pos = ref buf in
  let consumed = ref 0 in
  (try
     List.iter
       (fun (name, dtype, ino) ->
         let reclen = (19 + String.length name + 1 + 7) land lnot 7 in
         if !pos + reclen > buf + len then raise Exit;
         set_i64 m !pos (Int64.of_int ino);
         set_i64 m (!pos + 8) (Int64.of_int (!consumed + 1));
         set_u16 m (!pos + 16) reclen;
         set_u8 m (!pos + 18) dtype;
         write_cstring m (!pos + 19) name;
         pos := !pos + reclen;
         incr consumed)
       entries
   with Exit -> ());
  (!pos - buf, !consumed)

(* ------------------------------------------------------------------ *)
(* sockaddr                                                             *)
(* ------------------------------------------------------------------ *)

let read_sockaddr (m : mem) ~addr ~len : Kernel.Socket.addr option =
  if len < 2 then None
  else begin
    let family = u16 m addr in
    if family = Kernel.Ktypes.af_inet && len >= 8 then begin
      (* port and address in network byte order, as in the real ABI *)
      let port = (u8 m (addr + 2) lsl 8) lor u8 m (addr + 3) in
      let host =
        (u8 m (addr + 4) lsl 24) lor (u8 m (addr + 5) lsl 16)
        lor (u8 m (addr + 6) lsl 8) lor u8 m (addr + 7)
      in
      Some (Kernel.Socket.A_inet (host, port))
    end
    else if family = Kernel.Ktypes.af_unix then begin
      let max_path = min (len - 2) 108 in
      let b = Buffer.create 32 in
      (try
         for i = 0 to max_path - 1 do
           let c = u8 m (addr + 2 + i) in
           if c = 0 then raise Exit;
           Buffer.add_char b (Char.chr c)
         done
       with Exit -> ());
      Some (Kernel.Socket.A_unix (Buffer.contents b))
    end
    else None
  end

let write_sockaddr (m : mem) ~addr (a : Kernel.Socket.addr) : int =
  match a with
  | Kernel.Socket.A_inet (host, port) ->
      set_u16 m addr Kernel.Ktypes.af_inet;
      set_u8 m (addr + 2) ((port lsr 8) land 0xff);
      set_u8 m (addr + 3) (port land 0xff);
      set_u8 m (addr + 4) ((host lsr 24) land 0xff);
      set_u8 m (addr + 5) ((host lsr 16) land 0xff);
      set_u8 m (addr + 6) ((host lsr 8) land 0xff);
      set_u8 m (addr + 7) (host land 0xff);
      8
  | Kernel.Socket.A_unix path ->
      set_u16 m addr Kernel.Ktypes.af_unix;
      write_cstring m (addr + 2) path;
      2 + String.length path + 1
