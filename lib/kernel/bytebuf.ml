(** Growable byte buffer used for regular file contents. *)

type t = { mutable data : Bytes.t; mutable len : int }

let create () = { data = Bytes.create 64; len = 0 }

let of_string s = { data = Bytes.of_string s; len = String.length s }

let length b = b.len

let ensure b n =
  if n > Bytes.length b.data then begin
    let cap = Int.max n (2 * Bytes.length b.data) in
    let d = Bytes.make cap '\000' in
    Bytes.blit b.data 0 d 0 b.len;
    b.data <- d
  end

(** Write [len] bytes from [src] at file offset [off], growing (and
    zero-filling any hole) as needed. *)
let pwrite b ~off ~src ~src_off ~len =
  ensure b (off + len);
  if off > b.len then Bytes.fill b.data b.len (off - b.len) '\000';
  Bytes.blit src src_off b.data off len;
  b.len <- Int.max b.len (off + len)

(** Read up to [len] bytes at [off] into [dst]; returns bytes read. *)
let pread b ~off ~dst ~dst_off ~len =
  if off >= b.len then 0
  else begin
    let n = Int.min len (b.len - off) in
    Bytes.blit b.data off dst dst_off n;
    n
  end

let truncate b n =
  ensure b n;
  if n > b.len then Bytes.fill b.data b.len (n - b.len) '\000';
  b.len <- n

let contents b = Bytes.sub_string b.data 0 b.len

let clear b = b.len <- 0
