(** Futexes. Keys are (address-space id, address): engines give each
    shared memory object a unique id so futexes in different processes
    never collide while threads sharing memory rendezvous correctly. *)

type key = int * int

type t = { table : (key, unit Waitq.t) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let queue_of f key =
  match Hashtbl.find_opt f.table key with
  | Some q -> q
  | None ->
      let q = Waitq.create () in
      Hashtbl.replace f.table key q;
      q

(** FUTEX_WAIT: blocks iff [load ()] still equals [expected]. *)
let wait f ~key ~(load : unit -> int32) ~(expected : int32) ?timeout_ns ~intr
    () : (unit, Errno.t) result =
  if load () <> expected then Error Errno.EAGAIN
  else begin
    let q = queue_of f key in
    match Waitq.wait ?timeout_ns ~intr [ q ] with
    | Waitq.Woken () -> Ok ()
    | Waitq.Timeout -> Error Errno.ETIMEDOUT
    | Waitq.Interrupted -> Error Errno.EINTR
  end

(** FUTEX_WAKE: wake up to [n] waiters; returns number woken. *)
let wake f ~key ~n : int =
  match Hashtbl.find_opt f.table key with
  | None -> 0
  | Some q ->
      let woken = ref 0 in
      while !woken < n && Waitq.wake_one q () do
        incr woken
      done;
      !woken
