open Effect
open Effect.Deep

type t = { fid : int; fname : string }

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* Timer heap entries are compared by (time, seq) so that equal deadlines
   fire in registration order. *)
module Timer_heap = struct
  type entry = { time : int64; seq : int; fire : unit -> unit }

  type heap = { mutable arr : entry array; mutable len : int }

  let dummy = { time = 0L; seq = 0; fire = (fun () -> ()) }
  let make () = { arr = Array.make 16 dummy; len = 0 }
  let is_empty h = h.len = 0

  let less a b =
    if Int64.compare a.time b.time <> 0 then Int64.compare a.time b.time < 0
    else a.seq < b.seq

  let push h e =
    if h.len = Array.length h.arr then begin
      let arr = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    h.arr.(h.len) <- e;
    h.len <- h.len + 1;
    let rec up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if less h.arr.(i) h.arr.(p) then begin
          let tmp = h.arr.(i) in
          h.arr.(i) <- h.arr.(p);
          h.arr.(p) <- tmp;
          up p
        end
      end
    in
    up (h.len - 1)

  let peek h = h.arr.(0)

  let pop h =
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    h.arr.(h.len) <- dummy;
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = if l < h.len && less h.arr.(l) h.arr.(i) then l else i in
      let m = if r < h.len && less h.arr.(r) h.arr.(m) then r else m in
      if m <> i then begin
        let tmp = h.arr.(i) in
        h.arr.(i) <- h.arr.(m);
        h.arr.(m) <- tmp;
        down m
      end
    in
    down 0;
    top
end

type sched = {
  runq : (unit -> unit) Queue.t;
  timers : Timer_heap.heap;
  mutable clock : int64;
  mutable next_fid : int;
  mutable timer_seq : int;
  mutable live : int;
  mutable cur : t option;
  (* Fibers currently suspended, for deadlock reporting. *)
  suspended : (int, string) Hashtbl.t;
}

exception Deadlock of string list

let tick_ns = 1_000L

(* Scheduler observation hook (for the observability sink): called once
   per quantum with the fiber that ran and the clock after the quantum,
   and once per idle clock jump with the skipped delta. Summing tick_ns
   per quantum plus the idle deltas reproduces the final clock exactly. *)
type observer = {
  ob_quantum : t -> int64 -> unit;
  ob_idle : int64 -> unit;
}

let observer : observer option ref = ref None
let set_observer ob = observer := ob

let scheduler : sched option ref = ref None

let sched () =
  match !scheduler with
  | Some s -> s
  | None -> failwith "Fiber: not inside Fiber.run"

let id f = f.fid
let name f = f.fname

let current () =
  match (sched ()).cur with
  | Some f -> f
  | None -> failwith "Fiber: no current fiber"

(* Callers like VFS timestamping may run outside a scheduler (e.g. while
   staging a filesystem image); report epoch then. *)
let now () = match !scheduler with Some s -> s.clock | None -> 0L
let alive () = (sched ()).live

(* Run one fiber body to completion under the effect handler. Suspension
   parks the continuation; the resumer pushes a thunk back on the run
   queue. *)
let exec_fiber s (f : t) (main : unit -> unit) =
  let finish () = s.live <- s.live - 1 in
  match_with
    (fun () ->
      s.cur <- Some f;
      main ())
    ()
    {
      retc = (fun () -> finish ());
      exnc = (fun e -> finish (); raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let fired = ref false in
                  Hashtbl.replace s.suspended f.fid f.fname;
                  let resume v =
                    if not !fired then begin
                      fired := true;
                      Hashtbl.remove s.suspended f.fid;
                      Queue.push
                        (fun () ->
                          s.cur <- Some f;
                          continue k v)
                        s.runq
                    end
                  in
                  register resume)
          | _ -> None);
    }

let spawn fname main =
  let s = sched () in
  let f = { fid = s.next_fid; fname } in
  s.next_fid <- s.next_fid + 1;
  s.live <- s.live + 1;
  Queue.push (fun () -> exec_fiber s f main) s.runq;
  f

let suspend register = perform (Suspend register)

let yield () =
  suspend (fun resume -> Queue.push (fun () -> resume ()) (sched ()).runq)

let at time fire =
  let s = sched () in
  s.timer_seq <- s.timer_seq + 1;
  Timer_heap.push s.timers { Timer_heap.time; seq = s.timer_seq; fire }

let sleep_until t =
  if Int64.compare t (now ()) > 0 then
    suspend (fun resume -> at t (fun () -> resume ()))
  else yield ()

let run main =
  let s =
    {
      runq = Queue.create ();
      timers = Timer_heap.make ();
      clock = 0L;
      next_fid = 0;
      timer_seq = 0;
      live = 0;
      cur = None;
      suspended = Hashtbl.create 16;
    }
  in
  let saved = !scheduler in
  scheduler := Some s;
  Fun.protect
    ~finally:(fun () -> scheduler := saved)
    (fun () ->
      ignore (spawn "root" main);
      let fire_due () =
        (* Fire every timer due at or before the current clock. *)
        let rec loop () =
          if
            (not (Timer_heap.is_empty s.timers))
            && Int64.compare (Timer_heap.peek s.timers).Timer_heap.time s.clock
               <= 0
          then begin
            (Timer_heap.pop s.timers).Timer_heap.fire ();
            loop ()
          end
        in
        loop ()
      in
      let rec loop () =
        if not (Queue.is_empty s.runq) then begin
          let thunk = Queue.pop s.runq in
          s.clock <- Int64.add s.clock tick_ns;
          thunk ();
          (match (!observer, s.cur) with
          | Some ob, Some f -> ob.ob_quantum f s.clock
          | _ -> ());
          s.cur <- None;
          fire_due ();
          loop ()
        end
        else if s.live > 0 && not (Timer_heap.is_empty s.timers) then begin
          (* Everyone is blocked: jump the clock to the next deadline.
             Once every fiber has finished, a timer left (the timeout
             of a wait that ended early) has nobody to wake, and the
             run ends without moving the clock to it. *)
          (let t = (Timer_heap.peek s.timers).Timer_heap.time in
           if Int64.compare t s.clock > 0 then begin
             (match !observer with
             | Some ob -> ob.ob_idle (Int64.sub t s.clock)
             | None -> ());
             s.clock <- t
           end);
          fire_due ();
          loop ()
        end
        else if s.live > 0 then
          raise
            (Deadlock (Hashtbl.fold (fun _ n acc -> n :: acc) s.suspended []))
      in
      loop ())
