(** Runtime values and numeric operator semantics.

    Floats are carried as raw IEEE-754 bit patterns so that value equality,
    cloning (fork) and binary round-trips are exact. *)

type value =
  | I32 of int32
  | I64 of int64
  | F32 of int32 (* bits *)
  | F64 of int64 (* bits *)

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let type_of = function
  | I32 _ -> Types.T_i32
  | I64 _ -> Types.T_i64
  | F32 _ -> Types.T_f32
  | F64 _ -> Types.T_f64

(** The untagged 8-byte stack slot of a value (see {!Rt.machine}): i32
    and f32 bits sign-extended from 32 bits, i64 and f64 bits as they
    are. *)
let to_slot = function I32 x | F32 x -> Int64.of_int32 x | I64 x | F64 x -> x

let of_slot (t : Types.val_type) s =
  match t with
  | Types.T_i32 | Types.T_funcref -> I32 (Int64.to_int32 s)
  | Types.T_i64 -> I64 s
  | Types.T_f32 -> F32 (Int64.to_int32 s)
  | Types.T_f64 -> F64 s

let to_string = function
  | I32 v -> Printf.sprintf "i32:%ld" v
  | I64 v -> Printf.sprintf "i64:%Ld" v
  | F32 b -> Printf.sprintf "f32:%g" (Int32.float_of_bits b)
  | F64 b -> Printf.sprintf "f64:%g" (Int64.float_of_bits b)

let as_i32 = function I32 v -> v | v -> trap "expected i32, got %s" (to_string v)
let as_i64 = function I64 v -> v | v -> trap "expected i64, got %s" (to_string v)
let as_f32 = function F32 v -> v | v -> trap "expected f32, got %s" (to_string v)
let as_f64 = function F64 v -> v | v -> trap "expected f64, got %s" (to_string v)

(* ------------------------------------------------------------------ *)
(* i32 operators                                                       *)
(* ------------------------------------------------------------------ *)

(** The i32 operators the interpreter does not inline, on the OCaml
    [int] form of an i32 slot (the value sign-extended). *)
module I32_op = struct
  let u32 x = x land 0xFFFF_FFFF

  let rec clz_from x n =
    if n = 32 || x land (0x8000_0000 lsr n) <> 0 then n else clz_from x (n + 1)

  let rec ctz_from x n =
    if n = 32 || x land (1 lsl n) <> 0 then n else ctz_from x (n + 1)

  let clz x = clz_from x 0
  let ctz x = ctz_from x 0

  let rec popcnt_from x n = if x = 0 then n else popcnt_from (x land (x - 1)) (n + 1)
  let popcnt x = popcnt_from (u32 x) 0

  let nonzero b = if b = 0 then trap "integer divide by zero"

  let div_s a b =
    nonzero b;
    if a = -0x8000_0000 && b = -1 then trap "integer overflow" else a / b

  let rem_s a b = nonzero b; a mod b

  (* unsigned results above 2^31 come back sign-extended *)
  let div_u a b = nonzero b; ((u32 a / u32 b) lsl 31) asr 31
  let rem_u a b = nonzero b; ((u32 a mod u32 b) lsl 31) asr 31
end

(* ------------------------------------------------------------------ *)
(* i64 operators                                                       *)
(* ------------------------------------------------------------------ *)

module I64_op = struct
  open Int64

  let unsigned_compare a b = compare (add a min_int) (add b min_int)

  let clz x =
    if x = 0L then 64
    else begin
      let n = ref 0 and x = ref x in
      while logand !x 0x8000000000000000L = 0L do
        incr n;
        x := shift_left !x 1
      done;
      !n
    end

  let ctz x =
    if x = 0L then 64
    else begin
      let n = ref 0 and x = ref x in
      while logand !x 1L = 0L do
        incr n;
        x := shift_right_logical !x 1
      done;
      !n
    end

  let popcnt x =
    let n = ref 0 in
    for i = 0 to 63 do
      if logand (shift_right_logical x i) 1L = 1L then incr n
    done;
    !n

  let div_s a b =
    if b = 0L then trap "integer divide by zero"
    else if a = min_int && b = -1L then trap "integer overflow"
    else div a b

  let rem_s a b =
    if b = 0L then trap "integer divide by zero"
    else if a = min_int && b = -1L then 0L
    else rem a b

  let div_u a b =
    if b = 0L then trap "integer divide by zero" else unsigned_div a b

  let rem_u a b =
    if b = 0L then trap "integer divide by zero" else unsigned_rem a b

  let shl a b = shift_left a (to_int (logand b 63L))
  let shr_s a b = shift_right a (to_int (logand b 63L))
  let shr_u a b = shift_right_logical a (to_int (logand b 63L))

  let rotl a b =
    let n = to_int (logand b 63L) in
    if n = 0 then a else logor (shift_left a n) (shift_right_logical a (64 - n))

  let rotr a b =
    let n = to_int (logand b 63L) in
    if n = 0 then a else logor (shift_right_logical a n) (shift_left a (64 - n))
end

(* ------------------------------------------------------------------ *)
(* float <-> int conversions with Wasm trapping semantics              *)
(* ------------------------------------------------------------------ *)

module Convert = struct
  (* [@inline]: the interpreter's callers then keep floats and results
     unboxed where cross-module inlining is on *)
  let[@inline] trunc_f64_i32_s f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 2147483648.0 || f < -2147483649.0 then trap "integer overflow";
    Int32.of_float f

  let[@inline] trunc_f64_i32_u f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 4294967296.0 || f <= -1.0 then trap "integer overflow";
    Int64.to_int32 (Int64.of_float f)

  let[@inline] trunc_f64_i64_s f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 9.2233720368547758e18 || f < -9.2233720368547758e18 then
      trap "integer overflow";
    Int64.of_float f

  let[@inline] trunc_f64_i64_u f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 1.8446744073709552e19 || f <= -1.0 then trap "integer overflow";
    if f < 9.2233720368547758e18 then Int64.of_float f
    else Int64.add (Int64.of_float (f -. 9223372036854775808.0)) Int64.min_int

  let[@inline] convert_i32_u_to_float x =
    Int64.to_float (Int64.logand (Int64.of_int32 x) 0xFFFFFFFFL)

  let[@inline] convert_i64_u_to_float x =
    if Int64.compare x 0L >= 0 then Int64.to_float x
    else
      Int64.to_float (Int64.shift_right_logical x 1) *. 2.0
      +. Int64.to_float (Int64.logand x 1L)
end
