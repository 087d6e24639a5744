(** Pipes: bounded ring buffer with blocking reader/writer ends, EOF on
    writer hangup and EPIPE on reader hangup. Also backs socketpairs and
    accepted socket streams.

    The ring is allocated by use, as Linux's [pipe_write] allocates a
    pipe's pages: it starts empty and doubles from [min_ring] bytes when a
    write needs more, up to [capacity]. [capacity] alone decides [space],
    so readiness, EAGAIN and blocking do not depend on the ring's size.
    Nothing holds [buf] across a wait. *)

type t = {
  mutable buf : Bytes.t; (* the ring: [Bytes.empty] until the first write *)
  mutable rd : int; (* read position *)
  mutable count : int; (* bytes available *)
  mutable readers : int;
  mutable writers : int;
  read_wq : unit Waitq.t;
  write_wq : unit Waitq.t;
  capacity : int;
}

let default_capacity = 65536
let min_ring = 64

(** POSIX PIPE_BUF: a pipe write of at most this many bytes is atomic. *)
let pipe_buf = 4096

let create ?(capacity = default_capacity) () =
  {
    buf = Bytes.empty;
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

let drop_reader p =
  p.readers <- p.readers - 1;
  if p.readers = 0 then ignore (Waitq.wake_all p.write_wq ())

let drop_writer p =
  p.writers <- p.writers - 1;
  if p.writers = 0 then ignore (Waitq.wake_all p.read_wq ())

(* Copy out up to [len] bytes; assumes count > 0. A drained ring starts
   over at 0, so a write that is read back whole never wraps. *)
let pop p dst dst_off len =
  let size = Bytes.length p.buf in
  let n = Int.min len p.count in
  let first = Int.min n (size - p.rd) in
  Bytes.blit p.buf p.rd dst dst_off first;
  if n > first then Bytes.blit p.buf 0 dst (dst_off + first) (n - first);
  p.count <- p.count - n;
  p.rd <- (if p.count = 0 then 0 else if p.rd + n >= size then p.rd + n - size else p.rd + n);
  ignore (Waitq.wake_all p.write_wq ());
  n

(* Make the ring hold at least [need] (<= capacity) bytes: double its
   size from [min_ring], at most to [capacity], and move the contents to
   the front. *)
let grow p need =
  let size = Bytes.length p.buf in
  let rec fit n = if n >= need then n else fit (2 * n) in
  let b = Bytes.create (Int.min p.capacity (fit (Int.max min_ring (2 * size)))) in
  let first = Int.min p.count (size - p.rd) in
  Bytes.blit p.buf p.rd b 0 first;
  Bytes.blit p.buf 0 b first (p.count - first);
  p.buf <- b;
  p.rd <- 0

let push p src src_off len =
  let n = Int.min len (space p) in
  if p.count + n > Bytes.length p.buf then grow p (p.count + n);
  let size = Bytes.length p.buf in
  let wr = if p.rd + p.count >= size then p.rd + p.count - size else p.rd + p.count in
  let first = Int.min n (size - wr) in
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
    match Waitq.wait ~intr [ p.read_wq ] with
    | Waitq.Interrupted -> Error Errno.EINTR
    | Waitq.Woken () | Waitq.Timeout -> read p ~intr ~nonblock dst dst_off len

(* The free bytes a write of [len] waits for: all of them when it is
   atomic. *)
let need p ~atomic len = if atomic && len <= pipe_buf && len <= p.capacity then len else 1

(* [write] with [written] bytes of [len] already in; a push waits until
   [need] bytes are free. *)
let rec write_from p ~intr ~nonblock ~need src src_off len written =
  let partial e = if written > 0 then Ok written else Error e in
  if p.readers = 0 then partial Errno.EPIPE
  else if written >= len then Ok written
  else if space p >= need then
    write_from p ~intr ~nonblock ~need src src_off len
      (written + push p src (src_off + written) (len - written))
  else if nonblock then partial Errno.EAGAIN
  else
    match Waitq.wait ~intr [ p.write_wq ] with
    | Waitq.Interrupted -> partial Errno.EINTR
    | Waitq.Woken () | Waitq.Timeout ->
        write_from p ~intr ~nonblock ~need src src_off len written

(** Blocking write of the full buffer (short writes only in nonblocking
    mode). Returns [Error EPIPE] when no readers remain — the caller is
    responsible for raising SIGPIPE. With [~atomic] (pipes, not socket
    streams) a write of at most [pipe_buf] bytes goes in whole or
    not at all: it waits, or fails with EAGAIN, until all of it fits. *)
let write p ~intr ~nonblock ~atomic src src_off len : (int, Errno.t) result =
  if len = 0 then Ok 0 else write_from p ~intr ~nonblock ~need:(need p ~atomic len) src src_off len 0

(** Poll readiness bits for one end of the pipe. *)
let poll_read p =
  (if p.count > 0 then Ktypes.pollin else 0)
  lor if p.writers = 0 then Ktypes.pollhup else 0

let poll_write p ~atomic =
  (* writable: a write of up to [pipe_buf] bytes would not wait *)
  (if space p >= need p ~atomic (Int.min pipe_buf p.capacity) then Ktypes.pollout else 0)
  lor if p.readers = 0 then Ktypes.pollerr else 0
