(** The machine-speed reference.

    On a shared VM the host's effective speed drifts by up to 1.8x over
    tens of seconds, and every timed layer moves with it. The benchmark
    therefore runs a fixed reference kernel next to each iteration and
    scales the iteration's host time by [nominal_ms] over the kernel's
    recent median time. The reported times read as milliseconds on a
    machine where the kernel takes [nominal_ms].

    The kernel is a small stack interpreter over boxed values, with
    variant dispatch and loads and stores into a 1 MiB byte array,
    followed by a burst of short-lived and retained allocation. That is
    the same kind of work as the engine's interpreter and compiler, so it
    slows down the way the workloads do. It is fixed here and shares no code with the
    engine, so a change to the engine moves the workloads and not the
    reference. *)

let nominal_ms = 5.0

type v = I32 of int32 | I64 of int64

type op =
  | Get of int
  | Set of int
  | Const of int
  | Add
  | Mul
  | Xor
  | Load
  | Store
  | Loop of int (* decrement local 0; jump to the target while positive *)

let mem = Bytes.make (1 lsl 20) '\001'

(* acc = acc xor (mem[acc * 7] + 3); mem[hash acc] = acc *)
let prog =
  [| Get 1; Const 7; Mul; Load; Const 3; Add; Get 1; Xor; Set 1; Get 1; Get 1;
     Store; Loop 0 |]

let trips = 40_000

(* slots that keep every eighth list alive, so the burst also feeds the
   major heap *)
let retained = Array.make 4096 []

let kernel () : int =
  let st = Array.make 16 (I32 0l) and sp = ref 0 in
  let loc = [| I64 (Int64.of_int trips); I64 1L |] in
  let push x =
    st.(!sp) <- x;
    incr sp
  in
  let pop () =
    decr sp;
    st.(!sp)
  in
  let toi = function I32 x -> Int32.to_int x | I64 x -> Int64.to_int x in
  let i64 n = I64 (Int64.of_int n) in
  let pc = ref 0 in
  while !pc < Array.length prog do
    let op = prog.(!pc) in
    incr pc;
    match op with
    | Get i -> push loc.(i)
    | Set i -> loc.(i) <- pop ()
    | Const n -> push (i64 n)
    | Add ->
        let b = pop () in
        let a = pop () in
        push (i64 (toi a + toi b))
    | Mul ->
        let b = pop () in
        let a = pop () in
        push (i64 (toi a * toi b))
    | Xor ->
        let b = pop () in
        let a = pop () in
        push (I32 (Int32.logxor (Int32.of_int (toi a)) (Int32.of_int (toi b))))
    | Load ->
        let a = toi (pop ()) land 0xfffff in
        push (I32 (Int32.of_int (Char.code (Bytes.unsafe_get mem a))))
    | Store ->
        let x = pop () in
        let a = toi (pop ()) in
        Bytes.unsafe_set mem ((a * 2654435761) land 0xfffff) (Char.unsafe_chr (toi x land 255))
    | Loop t ->
        let c = toi loc.(0) - 1 in
        loc.(0) <- i64 c;
        if c > 0 then pc := t
  done;
  let acc = ref (toi loc.(1)) in
  for i = 0 to 100_000 do
    let l = [ Int64.of_int i; Int64.of_int !acc ] in
    if i land 7 = 0 then retained.(i land 4095) <- l;
    acc := !acc + List.length l
  done;
  !acc

(** Recent reference times, ns. *)
type t = { recent : float array; mutable n : int; all : float Queue.t }

let window = 9

let create () = { recent = Array.make window 0.0; n = 0; all = Queue.create () }

(** Time the kernel once and remember it. *)
let sample t =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
  t.recent.(t.n mod window) <- ns;
  t.n <- t.n + 1;
  Queue.push ns t.all

(** [nominal_ms] over the median of the last [window] samples: what the
    next host time is multiplied by. *)
let factor t =
  let k = min t.n window in
  nominal_ms *. 1e6 /. Sample.median (Array.sub t.recent 0 k)

(** Median of every sample so far, ms. *)
let median_ms t = Sample.median (Array.of_seq (Queue.to_seq t.all)) /. 1e6
