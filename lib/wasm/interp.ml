(** The interpreter loop over flat code.

    The loop — not the host functions — performs process-model surgery
    (fork clones the machine, exec swaps the process image), mirroring how
    WALI keeps syscall handlers tiny while the engine owns the execution
    environment.

    Operands live in the machine's untagged 8-byte slots (see
    {!Rt.machine}). An i32 is computed as an OCaml [int] holding its
    sign-extended value, so the i32 path boxes nothing; i64 and float
    operands are read and written as unboxed [int64]/[float] locals. *)

open Values
open Rt

type run_result =
  | R_done of value list
  | R_trap of string
  | R_exit of int

(* ------------------------------------------------------------------ *)
(* Slots                                                                *)
(* ------------------------------------------------------------------ *)

(* Unchecked: every slot an op names lies below its frame's
   [fr_fp + nlocals + fc_max_height], which {!Machine.push_frame}
   reserves, and every other access ([m.sp] and the slots under it) lies
   below the top of a frame too. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] slot (m : machine) k = get64 m.stack (8 * k)
let[@inline] set_slot (m : machine) k v = set64 m.stack (8 * k) v
let[@inline] slot_i (m : machine) k = Int64.to_int (get64 m.stack (8 * k))
let[@inline] set_slot_i (m : machine) k v = set64 m.stack (8 * k) (Int64.of_int v)

let[@inline] wrap x = (x lsl 31) asr 31 (* an int's low 32 bits, sign-extended *)
let[@inline] u32 x = x land 0xFFFF_FFFF
let[@inline] f32_slot f = Int64.of_int32 (Int32.bits_of_float f)
let[@inline] f32_of_slot s = Int32.float_of_bits (Int64.to_int32 s)
let[@inline] b2i b = if b then 1 else 0

(* ------------------------------------------------------------------ *)
(* Frames and branches                                                  *)
(* ------------------------------------------------------------------ *)

(* Move a branch's payload of the frame at [fp] into its target's slots. *)
let move (m : machine) fp (j : Code.jump) =
  for i = 0 to j.Code.moves - 1 do
    set_slot m (fp + j.Code.dst + i) (slot m (fp + j.Code.src + i))
  done

(* Pop the current frame, moving its result, if any, from the frame's
   slot [s] down to its [fr_fp]. The frame record stays in the machine's
   frame array for reuse by the next call at this depth. *)
let pop_frame (m : machine) s =
  (match m.prof_hook with Some h -> Machine.sync m; h m | None -> ());
  if m.depth = 0 then trap "return with no frame";
  let fr = m.frames.(m.depth - 1) in
  let n = fr.fr_code.Code.fc_arity in
  if n > 0 then set_slot m fr.fr_fp (slot m (fr.fr_fp + s));
  m.sp <- fr.fr_fp + n;
  m.depth <- m.depth - 1

(* Pop [types] (last on top) as tagged values. *)
let pop_values (m : machine) (types : Types.val_type list) =
  let base = m.sp - List.length types in
  m.sp <- base;
  List.mapi (fun i t -> Values.of_slot t (slot m (base + i))) types

(* ------------------------------------------------------------------ *)
(* Memory                                                               *)
(* ------------------------------------------------------------------ *)

let oob addr = trap "out of bounds memory access at %d" addr

let[@inline] check (d : Bytes.t) addr w = if addr > Bytes.length d - w then oob addr

(* Load from [addr] into slot [k]. *)
let exec_load (m : machine) (d : Bytes.t) kind addr k =
  match kind with
  | Code.L_i32 | Code.L_f32 | Code.L_i64_32 Ast.SX ->
      check d addr 4;
      set_slot m k (Int64.of_int32 (Bytes.get_int32_le d addr))
  | Code.L_i64 | Code.L_f64 ->
      check d addr 8;
      set_slot m k (Bytes.get_int64_le d addr)
  | Code.L_i32_8 Ast.SX | Code.L_i64_8 Ast.SX ->
      check d addr 1;
      set_slot_i m k (Bytes.get_int8 d addr)
  | Code.L_i32_8 Ast.ZX | Code.L_i64_8 Ast.ZX ->
      check d addr 1;
      set_slot_i m k (Bytes.get_uint8 d addr)
  | Code.L_i32_16 Ast.SX | Code.L_i64_16 Ast.SX ->
      check d addr 2;
      set_slot_i m k (Bytes.get_int16_le d addr)
  | Code.L_i32_16 Ast.ZX | Code.L_i64_16 Ast.ZX ->
      check d addr 2;
      set_slot_i m k (Bytes.get_uint16_le d addr)
  | Code.L_i64_32 Ast.ZX ->
      check d addr 4;
      set_slot_i m k (u32 (Int32.to_int (Bytes.get_int32_le d addr)))

(* Store the low bits of slot [v] at [addr]. Inlined, so that [v] is
   never boxed. *)
let[@inline] exec_store (d : Bytes.t) kind addr (v : int64) =
  match kind with
  | Code.S_i32 | Code.S_f32 | Code.S_i64_32 ->
      check d addr 4;
      Bytes.set_int32_le d addr (Int64.to_int32 v)
  | Code.S_i64 | Code.S_f64 ->
      check d addr 8;
      Bytes.set_int64_le d addr v
  | Code.S_i32_8 | Code.S_i64_8 ->
      check d addr 1;
      Bytes.set_uint8 d addr (Int64.to_int v land 0xff)
  | Code.S_i32_16 | Code.S_i64_16 ->
      check d addr 2;
      Bytes.set_uint16_le d addr (Int64.to_int v land 0xffff)

(* Memory 0 of an instance, held by [exec] as the record (memory.grow and
   the kernel's mmap replace its [data]). Validation rejects memory ops in
   a module without memory, so the empty placeholder is never accessed. *)
let no_memory = Memory.create ~min_pages:0 ~max_pages:0

let memory_of (inst : instance) =
  if Array.length inst.i_memories = 0 then no_memory else inst.i_memories.(0)

(* ------------------------------------------------------------------ *)
(* Numeric operators                                                    *)
(* ------------------------------------------------------------------ *)

let exec_i32_unop o x =
  match o with
  | Ast.Clz -> I32_op.clz x
  | Ast.Ctz -> I32_op.ctz x
  | Ast.Popcnt -> I32_op.popcnt x

let exec_i32_binop o a b =
  match o with
  | Ast.Add -> wrap (a + b)
  | Ast.Sub -> wrap (a - b)
  | Ast.Mul -> wrap (a * b)
  | Ast.Div_s -> I32_op.div_s a b
  | Ast.Div_u -> I32_op.div_u a b
  | Ast.Rem_s -> I32_op.rem_s a b
  | Ast.Rem_u -> I32_op.rem_u a b
  | Ast.And -> a land b
  | Ast.Or -> a lor b
  | Ast.Xor -> a lxor b
  | Ast.Shl -> wrap (a lsl (b land 31))
  | Ast.Shr_s -> a asr (b land 31)
  | Ast.Shr_u -> wrap (u32 a lsr (b land 31))
  | Ast.Rotl ->
      let n = b land 31 and u = u32 a in
      wrap ((u lsl n) lor (u lsr (32 - n)))
  | Ast.Rotr ->
      let n = b land 31 and u = u32 a in
      wrap ((u lsr n) lor (u lsl (32 - n)))

let exec_i32_relop o a b =
  match o with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.Lt_s -> a < b
  | Ast.Lt_u -> u32 a < u32 b
  | Ast.Gt_s -> a > b
  | Ast.Gt_u -> u32 a > u32 b
  | Ast.Le_s -> a <= b
  | Ast.Le_u -> u32 a <= u32 b
  | Ast.Ge_s -> a >= b
  | Ast.Ge_u -> u32 a >= u32 b

(* The i64 and float operators read and write slots directly, so their
   operands stay unboxed locals. *)
let exec_i64_unop (m : machine) o a d =
  let x = slot m a in
  set_slot_i m d
    (match o with
    | Ast.Clz -> I64_op.clz x
    | Ast.Ctz -> I64_op.ctz x
    | Ast.Popcnt -> I64_op.popcnt x)

let exec_i64_binop (m : machine) o a b d =
  let a = slot m a and b = slot m b in
  let open Int64 in
  (* [set64] takes the [match] itself, so that the result is not boxed *)
  set64 m.stack (8 * d)
    (match o with
    | Ast.Add -> add a b
    | Ast.Sub -> sub a b
    | Ast.Mul -> mul a b
    | Ast.Div_s -> I64_op.div_s a b
    | Ast.Div_u -> I64_op.div_u a b
    | Ast.Rem_s -> I64_op.rem_s a b
    | Ast.Rem_u -> I64_op.rem_u a b
    | Ast.And -> logand a b
    | Ast.Or -> logor a b
    | Ast.Xor -> logxor a b
    | Ast.Shl -> shift_left a (to_int b land 63)
    | Ast.Shr_s -> shift_right a (to_int b land 63)
    | Ast.Shr_u -> shift_right_logical a (to_int b land 63)
    | Ast.Rotl -> I64_op.rotl a b
    | Ast.Rotr -> I64_op.rotr a b)

let exec_i64_relop (m : machine) o a b d =
  let a = slot m a and b = slot m b in
  let ua = Int64.add a Int64.min_int and ub = Int64.add b Int64.min_int in
  set_slot_i m d
    (b2i
       (match o with
       | Ast.Eq -> a = b
       | Ast.Ne -> a <> b
       | Ast.Lt_s -> a < b
       | Ast.Lt_u -> ua < ub
       | Ast.Gt_s -> a > b
       | Ast.Gt_u -> ua > ub
       | Ast.Le_s -> a <= b
       | Ast.Le_u -> ua <= ub
       | Ast.Ge_s -> a >= b
       | Ast.Ge_u -> ua >= ub))

(* Round to nearest, ties to even; the sign of a zero result is kept. *)
let nearest x =
  let r = Float.round x in
  let r =
    if Float.abs (r -. x) = 0.5 && Float.rem r 2.0 <> 0.0 then
      r -. Float.copy_sign 1.0 x
    else r
  in
  Float.copy_sign r x

let[@inline] exec_f_unop o x =
  match o with
  | Ast.Neg -> -.x
  | Ast.Abs -> Float.abs x
  | Ast.Sqrt -> Float.sqrt x
  | Ast.Ceil -> Float.ceil x
  | Ast.Floor -> Float.floor x
  | Ast.Trunc -> Float.trunc x
  | Ast.Nearest -> nearest x

let[@inline] exec_f_binop o a b =
  match o with
  | Ast.Fadd -> a +. b
  | Ast.Fsub -> a -. b
  | Ast.Fmul -> a *. b
  | Ast.Fdiv -> a /. b
  | Ast.Fmin -> Float.min a b
  | Ast.Fmax -> Float.max a b
  | Ast.Copysign -> Float.copy_sign a b

let[@inline] exec_f_relop o (a : float) b =
  match o with
  | Ast.Feq -> a = b
  | Ast.Fne -> a <> b
  | Ast.Flt -> a < b
  | Ast.Fgt -> a > b
  | Ast.Fle -> a <= b
  | Ast.Fge -> a >= b

let exec_cvt (m : machine) (c : Ast.instr) a d =
  let v = slot m a in
  let i32 = Int64.to_int32 v in
  let sx8 x = (x lsl 55) asr 55 and sx16 x = (x lsl 47) asr 47 in
  set64 m.stack (8 * d)
    (match c with
    | Ast.I32_wrap_i64 | Ast.I64_extend_i32 Ast.SX | Ast.I64_extend32_s ->
        Int64.of_int32 i32
    | Ast.I64_extend_i32 Ast.ZX -> Int64.logand v 0xFFFFFFFFL
    | Ast.I32_trunc_f32 Ast.SX ->
        Int64.of_int32 (Convert.trunc_f64_i32_s (f32_of_slot v))
    | Ast.I32_trunc_f32 Ast.ZX ->
        Int64.of_int32 (Convert.trunc_f64_i32_u (f32_of_slot v))
    | Ast.I32_trunc_f64 Ast.SX ->
        Int64.of_int32 (Convert.trunc_f64_i32_s (Int64.float_of_bits v))
    | Ast.I32_trunc_f64 Ast.ZX ->
        Int64.of_int32 (Convert.trunc_f64_i32_u (Int64.float_of_bits v))
    | Ast.I64_trunc_f32 Ast.SX -> Convert.trunc_f64_i64_s (f32_of_slot v)
    | Ast.I64_trunc_f32 Ast.ZX -> Convert.trunc_f64_i64_u (f32_of_slot v)
    | Ast.I64_trunc_f64 Ast.SX -> Convert.trunc_f64_i64_s (Int64.float_of_bits v)
    | Ast.I64_trunc_f64 Ast.ZX -> Convert.trunc_f64_i64_u (Int64.float_of_bits v)
    | Ast.F32_convert_i32 Ast.SX -> f32_slot (Int32.to_float i32)
    | Ast.F32_convert_i32 Ast.ZX -> f32_slot (Convert.convert_i32_u_to_float i32)
    | Ast.F32_convert_i64 Ast.SX -> f32_slot (Int64.to_float v)
    | Ast.F32_convert_i64 Ast.ZX -> f32_slot (Convert.convert_i64_u_to_float v)
    | Ast.F64_convert_i32 Ast.SX -> Int64.bits_of_float (Int32.to_float i32)
    | Ast.F64_convert_i32 Ast.ZX ->
        Int64.bits_of_float (Convert.convert_i32_u_to_float i32)
    | Ast.F64_convert_i64 Ast.SX -> Int64.bits_of_float (Int64.to_float v)
    | Ast.F64_convert_i64 Ast.ZX ->
        Int64.bits_of_float (Convert.convert_i64_u_to_float v)
    | Ast.F32_demote_f64 -> f32_slot (Int64.float_of_bits v)
    | Ast.F64_promote_f32 -> Int64.bits_of_float (f32_of_slot v)
    | Ast.I32_reinterpret_f32 | Ast.F32_reinterpret_i32
    | Ast.I64_reinterpret_f64 | Ast.F64_reinterpret_i64 ->
        v
    | Ast.I32_extend8_s | Ast.I64_extend8_s ->
        Int64.of_int (sx8 (Int64.to_int v))
    | Ast.I32_extend16_s | Ast.I64_extend16_s ->
        Int64.of_int (sx16 (Int64.to_int v))
    | _ -> invalid_arg "not a conversion")

(* A [K_num] instruction [n], reading slots [a] (and [b]), writing [d]. *)
let exec_num (m : machine) (n : Ast.instr) a b d =
  match n with
  | Ast.I32_unop o -> set_slot_i m d (exec_i32_unop o (slot_i m a))
  | Ast.I64_eqz -> set_slot_i m d (b2i (slot m a = 0L))
  | Ast.I64_unop o -> exec_i64_unop m o a d
  | Ast.I64_binop o -> exec_i64_binop m o a b d
  | Ast.I64_relop o -> exec_i64_relop m o a b d
  | Ast.F32_unop o -> set_slot m d (f32_slot (exec_f_unop o (f32_of_slot (slot m a))))
  | Ast.F64_unop o -> set_slot m d (Int64.bits_of_float (exec_f_unop o (Int64.float_of_bits (slot m a))))
  | Ast.F32_binop o ->
      set_slot m d (f32_slot (exec_f_binop o (f32_of_slot (slot m a)) (f32_of_slot (slot m b))))
  | Ast.F64_binop o ->
      set_slot m d
        (Int64.bits_of_float
           (exec_f_binop o (Int64.float_of_bits (slot m a)) (Int64.float_of_bits (slot m b))))
  | Ast.F32_relop o ->
      set_slot_i m d (b2i (exec_f_relop o (f32_of_slot (slot m a)) (f32_of_slot (slot m b))))
  | Ast.F64_relop o ->
      set_slot_i m d
        (b2i (exec_f_relop o (Int64.float_of_bits (slot m a)) (Int64.float_of_bits (slot m b))))
  | c -> exec_cvt m c a d

(* Each op charges its width, the Wasm ops it stands for, before anything
   can trap, so instruction counts (and trap-time counts) are identical
   to the unfolded engine's. *)
let[@inline] charge (m : machine) w =
  m.hot_steps <- m.hot_steps + w;
  m.hot_fused <- m.hot_fused + Bool.to_int (w > 1)

(* A host function called from outside the interpreter loop. *)
let call_host_direct m f args ~where =
  match f with
  | Host_slot { hs_type; hs_fn; _ } ->
      let base = m.sp in
      List.iter (Machine.push m) args;
      let r = Int64.of_int (hs_fn m base) in
      m.sp <- base;
      R_done (List.map (fun t -> Values.of_slot t r) hs_type.Types.results)
  | Host_func { hf_fn; _ } -> (
      match hf_fn m (Array.of_list args) with
      | H_return vs -> R_done vs
      | H_trap s -> R_trap s
      | H_exit c -> R_exit c
      | H_fork _ | H_exec _ -> R_trap ("fork/exec " ^ where))
  | Wasm_func _ -> assert false

exception Exit_trap of run_result

(** Run machine [m0] until its frame depth returns to [stop_depth]
    (0 = run to completion). [results] gives the result types of the
    entry function. *)
let rec run_machine ?(stop_depth = 0) (m0 : machine)
    ~(results : Types.val_type list) : run_result =
  let m = ref m0 in
  let results = ref results in
  let stop_depth = ref stop_depth in
  let call_host h hf_type (hf_fn : host_fn) =
    let mch = !m in
    let args = Array.of_list (pop_values mch hf_type.Types.params) in
    Machine.sync mch;
    match hf_fn mch args with
    | H_return vs ->
        (* slots are untyped, so a mistyped result would go unnoticed *)
        if List.map Values.type_of vs <> hf_type.Types.results then
          trap "host function %s returned [%s]" (func_name_of h)
            (String.concat ", " (List.map Values.to_string vs));
        List.iter (Machine.push mch) vs
    | H_trap s -> raise (Exit_trap (R_trap s))
    | H_exit code -> raise (Exit_trap (R_exit code))
    | H_fork register_child ->
        let child = Machine.clone mch in
        Machine.push child (I64 0L);
        let pid = register_child child in
        Machine.push mch (I64 pid)
    | H_exec make ->
        let m' = make () in
        m := m';
        results := [];
        stop_depth := 0
  in
  (* [exec] runs frame [fr] with its op array, frame pointer, memory 0
     and pc held in arguments: an op that stays in the frame tail-calls
     [exec] with the next pc, and [fr_pc] is written back only by the ops
     that leave it (calls, return and a poll whose hook runs). Ops read
     and write the frame's slots at [fp] plus their static offsets;
     [m.sp] is written only where something reads it: at a call, where
     the callee's frame or a host function's arguments start below it, at
     a poll whose hook runs, since a signal handler runs above it, and at
     a return. A call to a Wasm function or a slot host function and a
     return that stays above [stop_depth] switch frames by tail-calling
     [exec] again ([enter]); only a boxed host call, a poll whose hook is
     set and whose attention cell is armed, and a return to [stop_depth]
     go back to [loop], which re-reads the machine and its top frame. A
     trap needs no write-back. *)
  let rec exec mch fr (ops : Code.op array) fp (mem : Memory.t) pc =
    let next = pc + 1 in
    match ops.(pc) with
    | Code.K_copy { w; s; d } ->
        charge mch w;
        set_slot mch (fp + d) (slot mch (fp + s));
        exec mch fr ops fp mem next
    | Code.K_const { w; c; d } ->
        charge mch w;
        set_slot_i mch (fp + d) c;
        exec mch fr ops fp mem next
    | Code.K_i32_binop { w; o; a; b; d } ->
        charge mch w;
        set_slot_i mch (fp + d) (exec_i32_binop o (slot_i mch (fp + a)) (slot_i mch (fp + b)));
        exec mch fr ops fp mem next
    | Code.K_i32_binop_imm { w; o; a; c; d } ->
        charge mch w;
        set_slot_i mch (fp + d) (exec_i32_binop o (slot_i mch (fp + a)) c);
        exec mch fr ops fp mem next
    | Code.K_i32_relop { w; o; a; b; d } ->
        charge mch w;
        set_slot_i mch (fp + d) (b2i (exec_i32_relop o (slot_i mch (fp + a)) (slot_i mch (fp + b))));
        exec mch fr ops fp mem next
    | Code.K_i32_relop_imm { w; o; a; c; d } ->
        charge mch w;
        set_slot_i mch (fp + d) (b2i (exec_i32_relop o (slot_i mch (fp + a)) c));
        exec mch fr ops fp mem next
    | Code.K_load { w; k; off; a; b; c; d } ->
        charge mch w;
        exec_load mch mem.Memory.data k
          (u32 (slot_i mch (fp + a) + slot_i mch (fp + b) + c) + off)
          (fp + d);
        exec mch fr ops fp mem next
    | Code.K_store { w; k; off; a; b; c; v } ->
        charge mch w;
        exec_store mem.Memory.data k
          (u32 (slot_i mch (fp + a) + slot_i mch (fp + b) + c) + off)
          (slot mch (fp + v));
        exec mch fr ops fp mem next
    | Code.K_br { w; j } ->
        charge mch w;
        branch mch fr ops fp mem w j
    | Code.K_br_if { w; c; j } ->
        charge mch w;
        if slot mch (fp + c) <> 0L then branch mch fr ops fp mem w j
        else exec mch fr ops fp mem next
    | Code.K_br_cmp { w; o; a; b; j } ->
        charge mch w;
        if exec_i32_relop o (slot_i mch (fp + a)) (slot_i mch (fp + b)) then
          branch mch fr ops fp mem w j
        else exec mch fr ops fp mem next
    | Code.K_br_cmp_imm { w; o; a; c; j } ->
        charge mch w;
        if exec_i32_relop o (slot_i mch (fp + a)) c then branch mch fr ops fp mem w j
        else exec mch fr ops fp mem next
    | Code.K_br_table { w; i; js; dj } ->
        charge mch w;
        let i = u32 (slot_i mch (fp + i)) in
        branch mch fr ops fp mem w (if i < Array.length js then js.(i) else dj)
    | Code.K_unreachable { w } ->
        charge mch w;
        trap "unreachable executed"
    | Code.K_return { w; s } ->
        charge mch w;
        fr.fr_pc <- next;
        pop_frame mch s;
        if mch.depth > !stop_depth then
          let caller = mch.frames.(mch.depth - 1) in
          exec mch caller caller.fr_code.Code.fc_ops caller.fr_fp
            (if caller.fr_inst == fr.fr_inst then mem else memory_of caller.fr_inst)
            caller.fr_pc
    | Code.K_call { w; f; top } ->
        charge mch w;
        fr.fr_pc <- next;
        mch.sp <- fp + top;
        enter mch fr ops fp mem next fr.fr_inst.i_funcs.(f)
    | Code.K_call_indirect { w; ti; tbl; i; top } -> (
        charge mch w;
        let i = u32 (slot_i mch (fp + i)) in
        match Table.get fr.fr_inst.i_tables.(tbl) i with
        | None -> trap "uninitialized element %d" i
        | Some fidx ->
            let f = fr.fr_inst.i_funcs.(fidx) in
            let expect = fr.fr_inst.i_types.(ti) in
            if not (Types.func_type_equal (func_type_of f) expect) then
              trap "indirect call type mismatch: expected %s, %s has %s"
                (Types.string_of_func_type expect)
                (func_name_of f)
                (Types.string_of_func_type (func_type_of f));
            fr.fr_pc <- next;
            mch.sp <- fp + top;
            enter mch fr ops fp mem next f)
    | Code.K_select { w; a; b; c; d } ->
        charge mch w;
        set_slot mch (fp + d) (slot mch (fp + if slot mch (fp + c) <> 0L then a else b));
        exec mch fr ops fp mem next
    | Code.K_const64 { w; c; d } ->
        charge mch w;
        set_slot mch (fp + d) c;
        exec mch fr ops fp mem next
    | Code.K_global_get { w; g; d } ->
        charge mch w;
        set_slot mch (fp + d) (Values.to_slot (Global.get fr.fr_inst.i_globals.(g)));
        exec mch fr ops fp mem next
    | Code.K_global_set { w; g; a } ->
        charge mch w;
        let g = fr.fr_inst.i_globals.(g) in
        Global.set g (Values.of_slot (Values.type_of (Global.get g)) (slot mch (fp + a)));
        exec mch fr ops fp mem next
    | Code.K_memory_size { w; d } ->
        charge mch w;
        set_slot_i mch (fp + d) (Memory.size_pages mem);
        exec mch fr ops fp mem next
    | Code.K_memory_grow { w; a; d } ->
        charge mch w;
        set_slot_i mch (fp + d) (Memory.grow mem (slot_i mch (fp + a)));
        exec mch fr ops fp mem next
    | Code.K_memory_fill { w; a; b; c } ->
        charge mch w;
        let dst = u32 (slot_i mch (fp + a)) and byte = slot_i mch (fp + b) in
        (try Memory.fill mem ~dst ~byte ~len:(u32 (slot_i mch (fp + c)))
         with Memory.Bounds -> trap "out of bounds memory fill");
        exec mch fr ops fp mem next
    | Code.K_memory_copy { w; a; b; c } ->
        charge mch w;
        let dst = u32 (slot_i mch (fp + a)) and src = u32 (slot_i mch (fp + b)) in
        (try Memory.copy mem ~dst ~src ~len:(u32 (slot_i mch (fp + c)))
         with Memory.Bounds -> trap "out of bounds memory copy");
        exec mch fr ops fp mem next
    (* a WALI call's result narrows to i32 *)
    | Code.K_num { w; n = Ast.I32_wrap_i64; a; d; _ } ->
        charge mch w;
        set_slot_i mch (fp + d) (wrap (slot_i mch (fp + a)));
        exec mch fr ops fp mem next
    | Code.K_num { w; n; a; b; d } ->
        charge mch w;
        exec_num mch n (fp + a) (fp + b) (fp + d);
        exec mch fr ops fp mem next
    | Code.K_poll { w; top } ->
        charge mch w;
        poll mch fr ops fp mem next top
  (* With the attention cell clear there is nothing to deliver, and the
     poll is one load and a branch. *)
  and poll mch fr ops fp mem pc top =
    if not !(mch.m_attn) then exec mch fr ops fp mem pc
    else
      match mch.poll_hook with
      | Some f ->
          fr.fr_pc <- pc;
          mch.sp <- fp + top;
          Machine.sync mch;
          f mch
      | None -> exec mch fr ops fp mem pc
  (* A taken branch of an op of width [w]. A back edge to a loop whose
     header polls performs that poll and lands past it, charging it only
     here. *)
  and branch mch fr ops fp mem w (j : Code.jump) =
    if j.moves > 0 then move mch fp j;
    if not j.poll then exec mch fr ops fp mem j.target
    else begin
      mch.hot_steps <- mch.hot_steps + 1;
      mch.hot_fused <- mch.hot_fused + Bool.to_int (w = 1);
      poll mch fr ops fp mem j.target j.top
    end
  (* Call [f] from frame [fr], whose [fr_pc] is already [next] and whose
     arguments end at [m.sp]. The callee of another instance runs on that
     instance's memory 0. *)
  and enter mch fr ops fp mem next f =
    match f with
    | Wasm_func { wf_inst; wf_code } ->
        Machine.push_frame mch wf_inst wf_code;
        let callee = mch.frames.(mch.depth - 1) in
        exec mch callee wf_code.Code.fc_ops callee.fr_fp
          (if wf_inst == fr.fr_inst then mem else memory_of wf_inst)
          0
    | Host_slot { hs_arity; hs_fn; _ } ->
        (* the arguments stay in place; the result replaces the first *)
        let base = mch.sp - hs_arity in
        set_slot_i mch base (hs_fn mch base);
        exec mch fr ops fp mem next
    | Host_func { hf_type; hf_fn; _ } -> call_host f hf_type hf_fn
  in
  try
    let rec loop () =
      let mch = !m in
      if mch.depth <= !stop_depth then begin
        let vs = pop_values mch !results in
        Machine.sync mch;
        R_done vs
      end
      else begin
        let fr = mch.frames.(mch.depth - 1) in
        exec mch fr fr.fr_code.Code.fc_ops fr.fr_fp (memory_of fr.fr_inst) fr.fr_pc;
        loop ()
      end
    in
    loop ()
  with
  | Trap s -> Machine.sync !m; R_trap s
  | Exit_trap r -> Machine.sync !m; r
  | e -> Machine.sync !m; raise e

(** Re-entrant call: invoke [f] on a machine that is already mid-execution
    (e.g. to run a virtual signal handler at a safepoint) and return when
    it completes, leaving the interrupted frames untouched. *)
and call_nested (m : machine) (f : func_inst) (args : value list) : run_result =
  match f with
  | Wasm_func { wf_inst; wf_code } ->
      let base = m.depth in
      List.iter (Machine.push m) args;
      Machine.push_frame m wf_inst wf_code;
      run_machine m ~results:wf_code.Code.fc_type.Types.results ~stop_depth:base
  | Host_func _ | Host_slot _ -> call_host_direct m f args ~where:"in nested host call"

(** Invoke [f] on a fresh entry in machine [m] (frames must be empty). *)
let invoke (m : machine) (f : func_inst) (args : value list) : run_result =
  assert (m.depth = 0);
  match f with
  | Wasm_func { wf_inst; wf_code } ->
      List.iter (Machine.push m) args;
      Machine.push_frame m wf_inst wf_code;
      run_machine m ~results:wf_code.Code.fc_type.Types.results
  | Host_func _ | Host_slot _ -> call_host_direct m f args ~where:"outside wasm context"

(** Resume a machine that already has frames (used after fork: the child
    continues from its cloned state, whose entry returns nothing). *)
let resume (m : machine) : run_result = run_machine m ~results:[]
