(** Interruptible wait queues: the kernel's blocking primitive.

    A blocked task can be woken by an event, by a timeout, or by signal
    delivery (EINTR). The interruption hook is an option ref supplied by
    the caller (the task's [intr] slot), so signal posting can find and
    wake whatever queue the task currently sleeps on. *)

type 'a outcome = Woken of 'a | Timeout | Interrupted

type 'a waiter = { mutable live : bool; fire : 'a outcome -> unit }

type 'a t = { mutable waiters : 'a waiter list }

let create () = { waiters = [] }

let drop_dead q = q.waiters <- List.filter (fun w -> w.live) q.waiters

(** Block on all of [qs] until woken, the timeout passes or a signal
    arrives. The task's one waiter goes on every queue; the first of a
    wake, the timeout and a signal ([intr], which holds the abort while
    the task waits) fires it, its [live] one-shot ignores the rest, and
    the other queues' dead entries are dropped here. With no queue only
    the timeout or a signal ends the wait. *)
let wait ?timeout_ns ~(intr : (unit -> unit) option ref) (qs : 'a t list) :
    'a outcome =
  let result =
    Fiber.suspend (fun resume ->
        let rec w =
          { live = true; fire = (fun o -> if w.live then begin w.live <- false; resume o end) }
        in
        List.iter (fun q -> q.waiters <- q.waiters @ [ w ]) qs;
        intr := Some (fun () -> w.fire Interrupted);
        match timeout_ns with
        | Some ns -> Fiber.at (Int64.add (Fiber.now ()) ns) (fun () -> w.fire Timeout)
        | None -> ())
  in
  intr := None;
  List.iter drop_dead qs;
  result

(** Wake at most one waiter with [v]; returns true if someone was woken. *)
let wake_one q v =
  let rec go = function
    | [] -> false
    | w :: rest ->
        if w.live then begin
          w.fire (Woken v);
          true
        end
        else go rest
  in
  let r = go q.waiters in
  drop_dead q;
  r

(** Wake every current waiter; returns the number woken. An empty
    queue, the common case, returns at once. *)
let wake_all q v =
  match q.waiters with
  | [] -> 0
  | ws ->
      let n =
        List.fold_left
          (fun n w ->
            if w.live then begin
              w.fire (Woken v);
              n + 1
            end
            else n)
          0 ws
      in
      q.waiters <- [];
      n
