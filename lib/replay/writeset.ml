(** The per-syscall write-set oracle: which guest-memory bytes may the
    kernel side of the thin interface write for a given call?

    This is the recorder's static model of `Wali.Interface.dispatch_raw`
    — for each syscall it enumerates the (addr, len) output regions from
    the handler's ABI (stat buffers, iovecs, read targets, …), clamped to
    the result where the ABI says so. Regions may over-approximate
    (e.g. `uname` records the whole 390-byte struct although only the
    six strings' prefixes change); over-approximation is harmless since
    re-applying unchanged bytes is a no-op, while *under*-approximation
    would let replayed memory drift. `brk` is the one handler whose
    write-set depends on engine state not visible in args/result, so it
    falls back to a whole-memory diff ([Whole]). *)

open Wasm

(** How a syscall is treated on replay. [Data] calls are injected from
    the log (the kernel is never consulted); [Live] calls re-execute
    through the engine because they create or destroy engine structure —
    machines, fibers, images, signal dispositions — and are validated
    against the log instead. *)
type cls = Live | Data

let classify = function
  | "fork" | "vfork" | "clone" | "execve" | "exit" | "exit_group"
  | "thread_spawn" | "rt_sigaction" ->
      Live
  | _ -> Data

(** Safepoint polls the live dispatcher performs *inside* the handler
    (interface.ml polls via [Engine.poll] before returning from these);
    injection must replicate them so the per-machine poll counters that
    position signal deliveries stay aligned between record and replay. *)
let polls_inside = function "rt_sigprocmask" | "rt_sigsuspend" -> 1 | _ -> 0

type spec =
  | Regions of (int * int) list (* (addr, len) candidates; may overlap *)
  | Whole (* not statically enumerable: diff whole memory around the call *)

(** True when the recorder must snapshot all of linear memory before the
    call (the [Whole] fallback needs a pre-image to diff against). *)
let needs_whole = function "brk" -> true | _ -> false

let kstat_size = 112
let sigaction_size = 16

let written ~(mem : Rt.Memory.t) (name : string) (args : int64 array)
    (result : int64) : spec =
  let a i = if i < Array.length args then args.(i) else 0L in
  let ai i = Int64.to_int (a i) in
  let ap i = Int64.to_int (Int64.logand (a i) 0xFFFFFFFFL) in
  let r = Int64.to_int result in
  let ok = Int64.compare result 0L >= 0 in
  let if_ok l = if ok then Regions l else Regions [] in
  let nz p l = if p <> 0 then l else [] in
  match name with
  | "read" | "pread64" | "recvfrom" -> if_ok [ (ap 1, r) ]
  | "getrandom" -> if_ok [ (ap 0, r) ]
  | "readv" ->
      if not ok then Regions []
      else begin
        let iovs =
          try Wali.Abi.read_iovecs mem ~iov:(ap 1) ~cnt:(ai 2)
          with Wali.Abi.Efault | Rt.Memory.Bounds -> []
        in
        (* the kernel filled iovecs in order up to the returned total *)
        let rec take n = function
          | [] -> []
          | (base, len) :: rest ->
              if n <= 0 then []
              else (base, min len n) :: take (n - len) rest
        in
        Regions (take r iovs)
      end
  | "stat" | "lstat" | "fstat" -> if_ok [ (ap 1, kstat_size) ]
  | "newfstatat" -> if_ok [ (ap 2, kstat_size) ]
  | "statfs" | "fstatfs" -> if_ok [ (ap 1, 32) ]
  | "readlink" -> if_ok [ (ap 1, r) ]
  | "readlinkat" -> if_ok [ (ap 2, r) ]
  | "getcwd" -> if_ok [ (ap 0, r) ]
  | "getdents64" -> if_ok [ (ap 1, r) ]
  | "pipe" | "pipe2" -> if_ok [ (ap 0, 8) ]
  | "poll" | "ppoll" -> if_ok [ (ap 0, min (max (ai 1) 0) 4096 * 8) ]
  | "select" | "pselect6" ->
      let nbytes = (max 0 (min (ai 0) 1024) + 7) / 8 in
      if_ok (nz (ap 1) [ (ap 1, nbytes) ] @ nz (ap 2) [ (ap 2, nbytes) ])
  | "ioctl" -> if_ok (nz (ap 2) [ (ap 2, 8) ])
  | "rt_sigaction" -> if_ok (nz (ap 2) [ (ap 2, sigaction_size) ])
  | "rt_sigprocmask" -> if_ok (nz (ap 2) [ (ap 2, 8) ])
  | "rt_sigpending" -> if_ok [ (ap 0, 8) ]
  | "wait4" | "waitid" ->
      if ok && r > 0 then
        Regions (nz (ap 1) [ (ap 1, 4) ] @ nz (ap 3) [ (ap 3, 16) ])
      else Regions []
  | "getrusage" -> if_ok [ (ap 1, 40) ]
  | "times" -> if_ok (nz (ap 0) [ (ap 0, 32) ])
  | "sysinfo" -> if_ok [ (ap 0, 28) ]
  | "uname" -> if_ok [ (ap 0, 6 * 65) ]
  | "prlimit64" -> if_ok (nz (ap 3) [ (ap 3, 16) ])
  | "getrlimit" -> if_ok (nz (ap 1) [ (ap 1, 16) ])
  | "sched_getaffinity" -> if_ok [ (ap 2, 8) ]
  | "getitimer" -> if_ok [ (ap 1, 32) ]
  | "clock_gettime" -> if_ok [ (ap 1, 16) ]
  | "clock_getres" -> if_ok (nz (ap 1) [ (ap 1, 16) ])
  | "gettimeofday" -> if_ok [ (ap 0, 16) ]
  | "time" -> if_ok (nz (ap 0) [ (ap 0, 8) ])
  | "socketpair" -> if_ok [ (ap 3, 8) ]
  | "getsockopt" -> if_ok (nz (ap 3) [ (ap 3, 4) ] @ nz (ap 4) [ (ap 4, 4) ])
  | "accept" | "accept4" ->
      if ok && ap 1 <> 0 && ap 2 <> 0 then Regions [ (ap 1, 8); (ap 2, 4) ]
      else Regions []
  | "getsockname" | "getpeername" -> if_ok [ (ap 1, 8); (ap 2, 4) ]
  | "mmap" -> if_ok [ (r, Wali.Mmap_mgr.align_up (ai 1)) ]
  | "mremap" -> if_ok [ (r, Wali.Mmap_mgr.align_up (ai 2)) ]
  | "brk" -> Whole
  | _ -> Regions []
