(** Interruptible wait queues: the kernel's blocking primitive.

    A blocked task can be woken by an event, by a timeout, or by signal
    delivery (EINTR). The interruption hook is an option ref supplied by
    the caller (the task's [intr] slot), so signal posting can find and
    wake whatever queue the task currently sleeps on. *)

type 'a outcome = Woken of 'a | Timeout | Interrupted

type 'a waiter = { mutable live : bool; fire : 'a outcome -> unit }

type 'a t = { mutable waiters : 'a waiter list }

let create () = { waiters = [] }

let waiting q = List.length (List.filter (fun w -> w.live) q.waiters)

(** Block until woken. [intr] is the task's interruption slot: while
    waiting it holds a function that aborts the wait with [Interrupted]. *)
let wait ?timeout_ns ~(intr : (unit -> unit) option ref) (q : 'a t) :
    'a outcome =
  let result =
    Fiber.suspend (fun resume ->
        let w = ref { live = true; fire = (fun _ -> ()) } in
        let fire o =
          if !w.live then begin
            !w.live <- false;
            resume o
          end
        in
        w := { live = true; fire };
        q.waiters <- q.waiters @ [ !w ];
        intr := Some (fun () -> fire Interrupted);
        match timeout_ns with
        | Some ns -> Fiber.at (Int64.add (Fiber.now ()) ns) (fun () -> fire Timeout)
        | None -> ())
  in
  intr := None;
  (* Drop dead waiters lazily. *)
  q.waiters <- List.filter (fun w -> w.live) q.waiters;
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
  q.waiters <- List.filter (fun w -> w.live) q.waiters;
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
