(** Pipes: bounded ring buffer with blocking reader/writer ends, EOF on
    writer hangup and EPIPE on reader hangup. Also backs socketpairs and
    accepted socket streams. *)

type t = {
  buf : Bytes.t;
  mutable rd : int; (* read position *)
  mutable count : int; (* bytes available *)
  mutable readers : int;
  mutable writers : int;
  read_wq : unit Waitq.t;
  write_wq : unit Waitq.t;
  capacity : int;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  {
    buf = Bytes.create capacity;
    rd = 0;
    count = 0;
    readers = 1;
    writers = 1;
    read_wq = Waitq.create ();
    write_wq = Waitq.create ();
    capacity;
  }

let available p = p.count
let space p = p.capacity - p.count

let add_reader p = p.readers <- p.readers + 1
let add_writer p = p.writers <- p.writers + 1

let drop_reader p =
  p.readers <- p.readers - 1;
  if p.readers = 0 then ignore (Waitq.wake_all p.write_wq ())

let drop_writer p =
  p.writers <- p.writers - 1;
  if p.writers = 0 then ignore (Waitq.wake_all p.read_wq ())

(* Copy out up to [len] bytes; assumes count > 0. *)
let pop p dst dst_off len =
  let n = min len p.count in
  let first = min n (p.capacity - p.rd) in
  Bytes.blit p.buf p.rd dst dst_off first;
  if n > first then Bytes.blit p.buf 0 dst (dst_off + first) (n - first);
  p.rd <- (p.rd + n) mod p.capacity;
  p.count <- p.count - n;
  ignore (Waitq.wake_all p.write_wq ());
  n

let push p src src_off len =
  let n = min len (space p) in
  let wr = (p.rd + p.count) mod p.capacity in
  let first = min n (p.capacity - wr) in
  Bytes.blit src src_off p.buf wr first;
  if n > first then Bytes.blit src (src_off + first) p.buf 0 (n - first);
  p.count <- p.count + n;
  ignore (Waitq.wake_all p.read_wq ());
  n

(** Blocking read; 0 = EOF. *)
let rec read p ~intr ~nonblock dst dst_off len : (int, Errno.t) result =
  if len = 0 then Ok 0
  else if p.count > 0 then Ok (pop p dst dst_off len)
  else if p.writers = 0 then Ok 0
  else if nonblock then Error Errno.EAGAIN
  else
    match Waitq.wait ~intr p.read_wq with
    | Waitq.Interrupted -> Error Errno.EINTR
    | Waitq.Woken () | Waitq.Timeout -> read p ~intr ~nonblock dst dst_off len

(* [write] with [written] bytes of [len] already in. *)
let rec write_from p ~intr ~nonblock src src_off len written =
  let partial e = if written > 0 then Ok written else Error e in
  if p.readers = 0 then partial Errno.EPIPE
  else if written >= len then Ok written
  else if space p > 0 then
    write_from p ~intr ~nonblock src src_off len
      (written + push p src (src_off + written) (len - written))
  else if nonblock then partial Errno.EAGAIN
  else
    match Waitq.wait ~intr p.write_wq with
    | Waitq.Interrupted -> partial Errno.EINTR
    | Waitq.Woken () | Waitq.Timeout -> write_from p ~intr ~nonblock src src_off len written

(** Blocking write of the full buffer (short writes only in nonblocking
    mode). Returns [Error EPIPE] when no readers remain — the caller is
    responsible for raising SIGPIPE. *)
let write p ~intr ~nonblock src src_off len : (int, Errno.t) result =
  if len = 0 then Ok 0 else write_from p ~intr ~nonblock src src_off len 0

(** Poll readiness bits for one end of the pipe. *)
let poll_read p =
  (if p.count > 0 then Ktypes.pollin else 0)
  lor if p.writers = 0 then Ktypes.pollhup else 0

let poll_write p =
  (if space p > 0 then Ktypes.pollout else 0)
  lor if p.readers = 0 then Ktypes.pollerr else 0
