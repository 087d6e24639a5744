(** A Zephyr-like RTOS simulator: cooperative threads with priorities,
    semaphores, mutexes, message queues, timers, a kernel heap, and a
    small device tree (GPIO pins + UART console) — the substrate WAZI's
    recipe is applied to (paper §5.1). *)

type zthread = {
  zt_id : int;
  mutable zt_name : string;
  mutable zt_prio : int;
  mutable zt_alive : bool;
  zt_join_wq : unit Kernel.Waitq.t;
  zt_intr : (unit -> unit) option ref;
}

type sem = { mutable s_count : int; s_limit : int; s_wq : unit Kernel.Waitq.t }

type mutex = {
  mutable m_owner : int option; (* thread id *)
  mutable m_depth : int;
  m_wq : unit Kernel.Waitq.t;
}

type msgq = {
  q_msg_size : int;
  q_capacity : int;
  q_items : Bytes.t Queue.t;
  q_put_wq : unit Kernel.Waitq.t;
  q_get_wq : unit Kernel.Waitq.t;
}

type timer = {
  mutable tm_gen : int;
  mutable tm_expired : int;
  tm_wq : unit Kernel.Waitq.t;
}

type gpio_pin = { mutable gp_dir_out : bool; mutable gp_value : int }

type t = {
  mutable next_tid : int;
  threads : (int, zthread) Hashtbl.t;
  mutable objects : (int, obj) Hashtbl.t; (* kernel object handles *)
  mutable next_obj : int;
  uart_out : Buffer.t;
  gpio : gpio_pin array;
  mutable gpio_log : (int * int * int64) list; (* pin, value, time *)
  mutable heap_used : int;
  heap_limit : int;
}

and obj = O_sem of sem | O_mutex of mutex | O_msgq of msgq | O_timer of timer

let create ?(heap_limit = 65536) () : t =
  {
    next_tid = 1;
    threads = Hashtbl.create 8;
    objects = Hashtbl.create 16;
    next_obj = 1;
    uart_out = Buffer.create 256;
    gpio = Array.init 32 (fun _ -> { gp_dir_out = false; gp_value = 0 });
    gpio_log = [];
    heap_used = 0;
    heap_limit;
  }

let alloc_obj z o =
  let h = z.next_obj in
  z.next_obj <- h + 1;
  Hashtbl.replace z.objects h o;
  h

let find_obj z h = Hashtbl.find_opt z.objects h

(* ---- threads ---- *)

let current_thread : zthread option ref = ref None

let k_thread_create z ~name ~prio (body : unit -> unit) : int =
  let tid = z.next_tid in
  z.next_tid <- tid + 1;
  let th =
    { zt_id = tid; zt_name = name; zt_prio = prio; zt_alive = true;
      zt_join_wq = Kernel.Waitq.create (); zt_intr = ref None }
  in
  Hashtbl.replace z.threads tid th;
  ignore
    (Fiber.spawn ("z:" ^ name) (fun () ->
         let saved = !current_thread in
         current_thread := Some th;
         (try body () with _ -> ());
         th.zt_alive <- false;
         ignore (Kernel.Waitq.wake_all th.zt_join_wq ());
         current_thread := saved));
  tid

let k_thread_join z ~tid : int =
  match Hashtbl.find_opt z.threads tid with
  | None -> -22 (* EINVAL *)
  | Some th ->
      if th.zt_alive then begin
        let intr = match !current_thread with Some t -> t.zt_intr | None -> ref None in
        ignore (Kernel.Waitq.wait ~intr [ th.zt_join_wq ])
      end;
      0

let k_thread_abort z ~tid : int =
  match Hashtbl.find_opt z.threads tid with
  | None -> -22
  | Some th ->
      th.zt_alive <- false;
      ignore (Kernel.Waitq.wake_all th.zt_join_wq ());
      0

let k_yield () = Fiber.yield ()

let k_sleep_ms ms =
  if ms > 0 then Fiber.sleep_until (Int64.add (Fiber.now ()) (Int64.mul (Int64.of_int ms) 1_000_000L))
  else Fiber.yield ()

let k_uptime_ms () = Int64.to_int (Int64.div (Fiber.now ()) 1_000_000L)

let cur_intr () =
  match !current_thread with Some t -> t.zt_intr | None -> ref None

(* ---- semaphores ---- *)

let k_sem_init z ~count ~limit : int =
  alloc_obj z (O_sem { s_count = count; s_limit = limit; s_wq = Kernel.Waitq.create () })

let k_sem_take z ~handle ~timeout_ms : int =
  match find_obj z handle with
  | Some (O_sem s) ->
      let rec go () =
        if s.s_count > 0 then begin
          s.s_count <- s.s_count - 1;
          0
        end
        else if timeout_ms = 0 then -11 (* EAGAIN: K_NO_WAIT *)
        else begin
          let timeout_ns =
            if timeout_ms < 0 then None
            else Some (Int64.mul (Int64.of_int timeout_ms) 1_000_000L)
          in
          match Kernel.Waitq.wait ?timeout_ns ~intr:(cur_intr ()) [ s.s_wq ] with
          | Kernel.Waitq.Timeout -> -116 (* ETIMEDOUT-ish (Zephyr -EAGAIN) *)
          | Kernel.Waitq.Woken () | Kernel.Waitq.Interrupted -> go ()
        end
      in
      go ()
  | _ -> -22

let k_sem_give z ~handle : int =
  match find_obj z handle with
  | Some (O_sem s) ->
      if s.s_count < s.s_limit then s.s_count <- s.s_count + 1;
      ignore (Kernel.Waitq.wake_one s.s_wq ());
      0
  | _ -> -22

let k_sem_count z ~handle : int =
  match find_obj z handle with Some (O_sem s) -> s.s_count | _ -> -22

(* ---- mutexes ---- *)

let k_mutex_init z : int =
  alloc_obj z (O_mutex { m_owner = None; m_depth = 0; m_wq = Kernel.Waitq.create () })

let k_mutex_lock z ~handle : int =
  match find_obj z handle with
  | Some (O_mutex m) ->
      let me = match !current_thread with Some t -> t.zt_id | None -> 0 in
      let rec go () =
        match m.m_owner with
        | None ->
            m.m_owner <- Some me;
            m.m_depth <- 1;
            0
        | Some o when o = me ->
            m.m_depth <- m.m_depth + 1;
            0
        | Some _ -> (
            match Kernel.Waitq.wait ~intr:(cur_intr ()) [ m.m_wq ] with
            | _ -> go ())
      in
      go ()
  | _ -> -22

let k_mutex_unlock z ~handle : int =
  match find_obj z handle with
  | Some (O_mutex m) ->
      m.m_depth <- m.m_depth - 1;
      if m.m_depth <= 0 then begin
        m.m_owner <- None;
        ignore (Kernel.Waitq.wake_one m.m_wq ())
      end;
      0
  | _ -> -22

(* ---- message queues ---- *)

let k_msgq_init z ~msg_size ~capacity : int =
  alloc_obj z
    (O_msgq
       { q_msg_size = msg_size; q_capacity = capacity; q_items = Queue.create ();
         q_put_wq = Kernel.Waitq.create (); q_get_wq = Kernel.Waitq.create () })

let k_msgq_put z ~handle ~(data : Bytes.t) ~timeout_ms : int =
  match find_obj z handle with
  | Some (O_msgq q) ->
      let rec go () =
        if Queue.length q.q_items < q.q_capacity then begin
          Queue.push (Bytes.sub data 0 q.q_msg_size) q.q_items;
          ignore (Kernel.Waitq.wake_one q.q_get_wq ());
          0
        end
        else if timeout_ms = 0 then -11
        else
          match Kernel.Waitq.wait ~intr:(cur_intr ()) [ q.q_put_wq ] with _ -> go ()
      in
      go ()
  | _ -> -22

let k_msgq_get z ~handle ~timeout_ms : (Bytes.t, int) result =
  match find_obj z handle with
  | Some (O_msgq q) ->
      let rec go () =
        if not (Queue.is_empty q.q_items) then begin
          let item = Queue.pop q.q_items in
          ignore (Kernel.Waitq.wake_one q.q_put_wq ());
          Ok item
        end
        else if timeout_ms = 0 then Error (-11)
        else begin
          let timeout_ns =
            if timeout_ms < 0 then None
            else Some (Int64.mul (Int64.of_int timeout_ms) 1_000_000L)
          in
          match Kernel.Waitq.wait ?timeout_ns ~intr:(cur_intr ()) [ q.q_get_wq ] with
          | Kernel.Waitq.Timeout -> Error (-11)
          | _ -> go ()
        end
      in
      go ()
  | _ -> Error (-22)

(* ---- timers ---- *)

let k_timer_init z : int =
  alloc_obj z (O_timer { tm_gen = 0; tm_expired = 0; tm_wq = Kernel.Waitq.create () })

let k_timer_start z ~handle ~duration_ms ~period_ms : int =
  match find_obj z handle with
  | Some (O_timer t) ->
      t.tm_gen <- t.tm_gen + 1;
      let gen = t.tm_gen in
      let rec arm delay =
        Fiber.at
          (Int64.add (Fiber.now ()) (Int64.mul (Int64.of_int delay) 1_000_000L))
          (fun () ->
            if t.tm_gen = gen then begin
              t.tm_expired <- t.tm_expired + 1;
              ignore (Kernel.Waitq.wake_all t.tm_wq ());
              if period_ms > 0 then arm period_ms
            end)
      in
      arm duration_ms;
      0
  | _ -> -22

let k_timer_stop z ~handle : int =
  match find_obj z handle with
  | Some (O_timer t) ->
      t.tm_gen <- t.tm_gen + 1;
      0
  | _ -> -22

let k_timer_status z ~handle : int =
  match find_obj z handle with
  | Some (O_timer t) ->
      let n = t.tm_expired in
      t.tm_expired <- 0;
      n
  | _ -> -22

(* ---- devices ---- *)

let gpio_configure z ~pin ~output : int =
  if pin < 0 || pin >= Array.length z.gpio then -22
  else begin
    z.gpio.(pin).gp_dir_out <- output;
    0
  end

let gpio_set z ~pin ~value : int =
  if pin < 0 || pin >= Array.length z.gpio then -22
  else begin
    z.gpio.(pin).gp_value <- (if value <> 0 then 1 else 0);
    z.gpio_log <- (pin, z.gpio.(pin).gp_value, Fiber.now ()) :: z.gpio_log;
    0
  end

let gpio_get z ~pin : int =
  if pin < 0 || pin >= Array.length z.gpio then -22 else z.gpio.(pin).gp_value

let gpio_toggle z ~pin : int =
  if pin < 0 || pin >= Array.length z.gpio then -22
  else gpio_set z ~pin ~value:(1 - z.gpio.(pin).gp_value)

let uart_poll_out z (c : int) : int =
  Buffer.add_char z.uart_out (Char.chr (c land 0xff));
  0

let uart_output z = Buffer.contents z.uart_out

(* ---- kernel heap (bump accounting; real storage is the Wasm module's) *)

(* The size is Zephyr's size_t, a u32: a size of 0, or one the heap has
   no room for, gets NULL. *)
let k_malloc z n : int =
  let n = n land 0xFFFFFFFF in
  if n = 0 || n > z.heap_limit - z.heap_used then 0
  else begin
    z.heap_used <- z.heap_used + n;
    z.heap_used (* opaque nonzero cookie *)
  end

let k_free _z _p = ()

(* deterministic PRNG for sys_rand_get *)
let rand_state = ref 0x12345678L

let sys_rand (buf : Bytes.t) off len =
  for i = 0 to len - 1 do
    let x = !rand_state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    rand_state := x;
    Bytes.set buf (off + i) (Char.chr (Int64.to_int (Int64.logand x 0xFFL)))
  done
