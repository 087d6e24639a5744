(** Validation + flattening of structured instructions into executable
    register-form flat code, in one walk over each function body.

    Every op names the frame slots it reads and writes. A frame is
    [fr_fp + k]: the locals at [k < nlocals], a slot that always holds
    zero at [k = nlocals], and the operand at stack height [h] at
    [k = nlocals + 1 + h]. The validator knows [h] at every op, so every
    operand's slot is static and no op touches a stack pointer.

    With [fold] (the default) a [local.get] or an [i32.const] emits
    nothing: it leaves a pending operand, a local or an immediate, that
    its consumer reads in place; a non-trapping producer followed by
    [local.set]/[local.tee] writes the local itself; [i32.eqz] after a
    compare negates it, and a compare followed by [br_if] branches on it.
    An op charges its width, the Wasm ops it stands for, before it can
    trap; the unfolded form emits one op of width 1 per Wasm op, with
    every operand in its stack slot, and is the reference the tests and
    the gate compare the folded one against.

    Structured control (block/loop/if/br/br_table) is compiled into
    jumps carrying the target pc and the static slots of their payload,
    so the interpreter needs no label bookkeeping at all — the sidetable
    technique used by in-place interpreters.

    The compiler also inserts [K_poll] safepoints according to the chosen
    scheme; this is where the WALI signal-delivery experiments (paper
    Table 3) get their loop/function/every-instruction variants. *)

open Types
open Ast

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* A branch: [moves] payload slots go from [src] to [dst] (frame-relative;
   0 when they are already in place), and [top] is the frame's live top
   at the target. A [poll] jump lands past its loop header's [K_poll] and
   performs that poll itself. *)
type jump = {
  mutable target : int;
  moves : int;
  src : int;
  dst : int;
  top : int;
  poll : bool;
}

(* [w] is the op's width: the Wasm ops it stands for. Slots ([a], [b],
   [c], [d], [s], [v], [i]) are frame-relative; [c] in an [_imm] op and in
   [K_const] is an immediate, an i32's or f32's bits sign-extended. The
   mutable fields are rewritten only while compiling. *)
type op =
  | K_unreachable of { w : int }
  | K_br of { w : int; j : jump }
  | K_br_if of { w : int; c : int; j : jump }
  | K_br_cmp of { w : int; o : int_relop; a : int; b : int; j : jump }
      (* i32.relop [; i32.eqz]; br_if — branch when [a o b] *)
  | K_br_cmp_imm of { w : int; o : int_relop; a : int; c : int; j : jump }
  | K_br_table of { w : int; i : int; js : jump array; dj : jump }
  | K_return of { w : int; s : int } (* the result's slot, if any *)
  | K_call of { w : int; f : int; top : int } (* arguments end at [top] *)
  | K_call_indirect of { w : int; ti : int; tbl : int; i : int; top : int }
  | K_select of { mutable w : int; a : int; b : int; c : int; mutable d : int }
  | K_copy of { w : int; s : int; d : int }
  | K_const of { w : int; c : int; d : int }
  | K_const64 of { mutable w : int; c : int64; mutable d : int }
  | K_global_get of { mutable w : int; g : int; mutable d : int }
  | K_global_set of { w : int; g : int; a : int }
  | K_load of { w : int; k : load_kind; off : int; a : int; b : int; c : int; d : int }
      (* the address is [u32 (a + b + c) + off] *)
  | K_store of { w : int; k : store_kind; off : int; a : int; b : int; c : int; v : int }
  | K_memory_size of { mutable w : int; mutable d : int }
  | K_memory_grow of { w : int; a : int; d : int }
  | K_memory_fill of { w : int; a : int; b : int; c : int } (* dst, byte, len *)
  | K_memory_copy of { w : int; a : int; b : int; c : int } (* dst, src, len *)
  | K_i32_binop of { mutable w : int; o : int_binop; a : int; b : int; mutable d : int }
  | K_i32_binop_imm of { mutable w : int; o : int_binop; a : int; c : int; mutable d : int }
  | K_i32_relop of { mutable w : int; mutable o : int_relop; a : int; b : int; mutable d : int }
  | K_i32_relop_imm of
      { mutable w : int; mutable o : int_relop; a : int; c : int; mutable d : int }
      (* [i32.eqz] is [Eq] against 0 *)
  | K_num of { mutable w : int; n : instr; a : int; b : int; mutable d : int }
      (* any other numeric instruction or conversion, [n]: i64, float, an
         i32 unop; [b] is a binary one's right operand *)
  | K_poll of { w : int; top : int } (* [top]: the frame's live top *)

and load_kind =
  | L_i32 | L_i64 | L_f32 | L_f64
  | L_i32_8 of extension | L_i32_16 of extension
  | L_i64_8 of extension | L_i64_16 of extension | L_i64_32 of extension

and store_kind =
  | S_i32 | S_i64 | S_f32 | S_f64
  | S_i32_8 | S_i32_16 | S_i64_8 | S_i64_16 | S_i64_32

type poll_scheme = Poll_none | Poll_loops | Poll_funcs | Poll_every

type fcode = {
  fc_name : string;
  fc_type : func_type;
  fc_arity : int; (* List.length fc_type.results, precomputed for returns *)
  fc_nparams : int; (* List.length fc_type.params, precomputed for calls *)
  fc_locals : val_type array; (* params followed by extra locals *)
  fc_max_height : int; (* slots the body uses above its locals: the zero slot and operands *)
  fc_ops : op array;
}

type fuse_stats = {
  fs_ops_before : int; (* Wasm ops over all functions: the unfolded op count *)
  fs_ops_after : int;
  fs_sites : int; (* ops standing for more than one Wasm op *)
}

(* Integer div/rem trap, and a trapping op never writes a following
   [local.set]'s local: the unfolded engine would not have counted that
   [local.set] at the trap. *)
let nontrap_binop = function
  | Ast.Div_s | Ast.Div_u | Ast.Rem_s | Ast.Rem_u -> false
  | _ -> true

let nontrap_num = function
  | I64_binop o -> nontrap_binop o
  | I32_trunc_f32 _ | I32_trunc_f64 _ | I64_trunc_f32 _ | I64_trunc_f64 _ -> false
  | _ -> true

(* A [K_num] instruction's operand type, operand count and result type. *)
let num_sig = function
  | I32_unop _ | I32_extend8_s | I32_extend16_s -> (T_i32, 1, T_i32)
  | I64_eqz | I32_wrap_i64 -> (T_i64, 1, T_i32)
  | I64_unop _ | I64_extend8_s | I64_extend16_s | I64_extend32_s -> (T_i64, 1, T_i64)
  | I64_binop _ -> (T_i64, 2, T_i64)
  | I64_relop _ -> (T_i64, 2, T_i32)
  | F32_unop _ -> (T_f32, 1, T_f32)
  | F64_unop _ -> (T_f64, 1, T_f64)
  | F32_binop _ -> (T_f32, 2, T_f32)
  | F64_binop _ -> (T_f64, 2, T_f64)
  | F32_relop _ -> (T_f32, 2, T_i32)
  | F64_relop _ -> (T_f64, 2, T_i32)
  | I64_extend_i32 _ -> (T_i32, 1, T_i64)
  | I32_trunc_f32 _ | I32_reinterpret_f32 -> (T_f32, 1, T_i32)
  | I32_trunc_f64 _ -> (T_f64, 1, T_i32)
  | I64_trunc_f32 _ -> (T_f32, 1, T_i64)
  | I64_trunc_f64 _ | I64_reinterpret_f64 -> (T_f64, 1, T_i64)
  | F32_convert_i32 _ | F32_reinterpret_i32 -> (T_i32, 1, T_f32)
  | F32_convert_i64 _ -> (T_i64, 1, T_f32)
  | F64_convert_i32 _ -> (T_i32, 1, T_f64)
  | F64_convert_i64 _ | F64_reinterpret_i64 -> (T_i64, 1, T_f64)
  | F32_demote_f64 -> (T_f64, 1, T_f32)
  | F64_promote_f32 -> (T_f32, 1, T_f64)
  | _ -> invalid "not a numeric instruction"

let negate = function
  | Eq -> Ne | Ne -> Eq | Lt_s -> Ge_s | Lt_u -> Ge_u | Gt_s -> Le_s
  | Gt_u -> Le_u | Le_s -> Gt_s | Le_u -> Gt_u | Ge_s -> Lt_s | Ge_u -> Lt_u

let commutes = function Add | Mul | And | Or | Xor -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Validator and emitter state                                          *)
(* ------------------------------------------------------------------ *)

(* A control frame. [cf_base] is the value-stack height below the
   frame's parameters. *)
type ctrl = {
  cf_is_loop : bool;
  cf_params : val_type list;
  cf_results : val_type list;
  cf_base : int;
  mutable cf_unreachable : bool;
  (* Forward-branch jumps to patch once the frame ends. Loops need no
     patching: their target is known at entry. *)
  mutable cf_patches : jump list;
  cf_loop_pc : int; (* pc of a loop's header *)
  cf_poll : bool; (* the header is a [K_poll] its back edges perform *)
}

type env = {
  e_module : module_;
  e_func_types : func_type array; (* full func index space *)
  e_global_types : global_type array; (* full global index space *)
  e_num_memories : int;
  e_num_tables : int;
}

let resolve_block_type env = function
  | Bt_none -> { params = []; results = [] }
  | Bt_val t -> { params = []; results = [ t ] }
  | Bt_type i ->
      if i < 0 || i >= Array.length env.e_module.types then
        invalid "block type index %d out of range" i;
      env.e_module.types.(i)

(* Where an operand on the compile-time stack is: in its own slot, still
   in a local ([s_arg] names it), or an immediate ([s_arg] holds it). *)
let in_slot = 0
let in_local = 1
let in_imm = 2

(* One compile pass's state: built once per module, reset per function,
   so compiling a function builds no closures. *)
type state = {
  s_env : env;
  s_poll : poll_scheme;
  s_fold : bool;
  mutable s_fname : string;
  mutable s_locals : val_type array;
  mutable s_results : val_type list;
  mutable s_types : val_type array; (* operand types, [s_height] deep *)
  mutable s_kind : int array; (* and where each operand is *)
  mutable s_arg : int array;
  mutable s_own : int array;
      (* the absorbed Wasm ops a pending operand stands for, valid while
         [s_since] is [s_epoch]: no op has charged them yet *)
  mutable s_since : int array;
  mutable s_epoch : int; (* bumped by each op that charges all of [s_pend] *)
  mutable s_height : int;
  mutable s_max_height : int;
  mutable s_ctrls : ctrl list;
  mutable s_out : op array;
      (* the module's one scratch emission buffer: 128 ops to start, under
         the minor heap's 256-word limit, and [out] doubles it *)
  mutable s_len : int; (* this function's ops in [s_out] *)
  mutable s_pend : int; (* Wasm ops absorbed since the last op charged *)
  mutable s_prod : int;
      (* the pc of the last op if it produced the operand at height
         [s_prod_h] into that operand's slot, else -1 *)
  mutable s_prod_h : int;
  mutable s_w : int; (* the width of the op about to be emitted *)
  mutable s_h : int; (* an op's operand and result height, ... *)
  mutable s_a : int; (* ... its operands' slots ... *)
  mutable s_b : int;
  mutable s_c : int; (* ... or immediate ... *)
  mutable s_d : int; (* ... and its result's slot *)
  mutable s_ops_before : int; (* Wasm ops, module total *)
  mutable s_sites : int; (* ops of width > 1, module total *)
}

let cur st =
  match st.s_ctrls with [] -> invalid "control stack underflow" | c :: _ -> c

let reachable st = not (cur st).cf_unreachable

let grow a fill n =
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let push st t =
  let h = st.s_height in
  if h = Array.length st.s_types then begin
    st.s_types <- grow st.s_types T_i32 h;
    st.s_kind <- grow st.s_kind in_slot h;
    st.s_arg <- grow st.s_arg 0 h;
    st.s_own <- grow st.s_own 0 h;
    st.s_since <- grow st.s_since 0 h
  end;
  st.s_types.(h) <- t;
  st.s_kind.(h) <- in_slot;
  st.s_height <- h + 1;
  if st.s_height > st.s_max_height then st.s_max_height <- st.s_height

(* Pop one operand and return its slot in [s_types], or -1 for a
   polymorphic pop: the frame is unreachable and drained to its base. *)
let pop_any st =
  let c = cur st in
  if st.s_height <= c.cf_base then
    if c.cf_unreachable then -1
    else invalid "%s: value stack underflow" st.s_fname
  else begin
    st.s_height <- st.s_height - 1;
    st.s_height
  end

let pop_expect st t =
  let i = pop_any st in
  if i >= 0 && st.s_types.(i) <> t then
    invalid "%s: type mismatch, expected %s got %s" st.s_fname
      (string_of_val_type t) (string_of_val_type st.s_types.(i))

let rec pop_list st = function
  | [] -> ()
  | t :: ts ->
      pop_list st ts;
      pop_expect st t

let rec push_list st = function
  | [] -> ()
  | t :: ts ->
      push st t;
      push_list st ts

let push_ctrl st ~is_loop params results pc =
  st.s_ctrls <-
    {
      cf_is_loop = is_loop;
      cf_params = params;
      cf_results = results;
      cf_base = st.s_height - List.length params;
      cf_unreachable = false;
      cf_patches = [];
      cf_loop_pc = pc;
      cf_poll = is_loop && st.s_fold && st.s_poll = Poll_loops;
    }
    :: st.s_ctrls

let pop_ctrl st = st.s_ctrls <- List.tl st.s_ctrls

(* Reset the stack to a frame's base: discards what an arm left behind,
   which only unreachable code can do; later pops are polymorphic. *)
let truncate st base = if st.s_height > base then st.s_height <- base

let mark_unreachable st =
  let c = cur st in
  truncate st c.cf_base;
  c.cf_unreachable <- true;
  st.s_prod <- -1

let rec nth_label st idx n = function
  | [] -> invalid "%s: branch depth %d out of range" st.s_fname idx
  | c :: rest -> if n = 0 then c else nth_label st idx (n - 1) rest

let label_of st idx = nth_label st idx idx st.s_ctrls

(* Branch payload types for label l. *)
let label_types c = if c.cf_is_loop then c.cf_params else c.cf_results

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)
(* ------------------------------------------------------------------ *)

let slot_of st h = Array.length st.s_locals + 1 + h
let zero st = Array.length st.s_locals

(* The width of the op about to be emitted, which stands for [base] Wasm
   ops of its own: those, and every absorbed one not charged yet. *)
let take st base =
  let w = st.s_pend + base in
  st.s_pend <- 0;
  st.s_epoch <- st.s_epoch + 1;
  st.s_ops_before <- st.s_ops_before + base;
  st.s_w <- w;
  w

(* A Wasm op that emits nothing: the next op charges it. *)
let absorb st =
  if reachable st then begin
    st.s_pend <- st.s_pend + 1;
    st.s_ops_before <- st.s_ops_before + 1
  end

(* [w], an emitted op's width, grown by a following Wasm op it absorbs. *)
let widen st w =
  if w = 1 then st.s_sites <- st.s_sites + 1;
  w + take st 1

(* Emit [op], whose width was just taken. *)
let out st op =
  if st.s_len = Array.length st.s_out then st.s_out <- grow st.s_out op st.s_len;
  st.s_out.(st.s_len) <- op;
  st.s_len <- st.s_len + 1;
  if st.s_w > 1 then st.s_sites <- st.s_sites + 1;
  st.s_prod <- -1

(* Emit [op], which writes the operand at height [s_h] into its slot. *)
let prod st op =
  out st op;
  st.s_prod <- st.s_len - 1;
  st.s_prod_h <- st.s_h

(* The last op, if it produced the operand at height [h]. *)
let producer st h =
  if st.s_fold && st.s_prod >= 0 && st.s_prod = st.s_len - 1 && st.s_prod_h = h
     && st.s_kind.(h) = in_slot
  then Some st.s_out.(st.s_prod)
  else None

(* Write a pending operand into its slot, charging the Wasm ops it
   stands for. *)
let materialize st h =
  let k = st.s_kind.(h) in
  if k <> in_slot then begin
    let w = if st.s_since.(h) = st.s_epoch then Int.min st.s_own.(h) st.s_pend else 0 in
    st.s_pend <- st.s_pend - w;
    st.s_w <- w;
    let d = slot_of st h and x = st.s_arg.(h) in
    out st (if k = in_local then K_copy { w; s = x; d } else K_const { w; c = x; d });
    st.s_kind.(h) <- in_slot
  end

(* The slot an op reads the operand at height [h] from. *)
let operand st h =
  let k = st.s_kind.(h) in
  if k = in_local then st.s_arg.(h)
  else if k = in_imm && st.s_arg.(h) = 0 then zero st
  else begin
    materialize st h;
    slot_of st h
  end

let imm st h = st.s_kind.(h) = in_imm

(* Materialize the operands at heights [lo, hi). *)
let spill st lo hi =
  for h = lo to hi - 1 do
    materialize st h
  done

(* Materialize every pending read of local [x] below height [hi] (of all
   locals if [x] < 0): before [x] is written, and at block entry, where a
   write inside the block may sit on one path only. Immediates never
   change and stay pending. *)
let spill_local st x hi =
  for h = 0 to hi - 1 do
    if st.s_kind.(h) = in_local && (x < 0 || st.s_arg.(h) = x) then materialize st h
  done

(* Validate a block's, loop's or if's parameters and put them into their
   slots, along with every pending local read below them. *)
let params st (ft : func_type) =
  pop_list st ft.params;
  let lo = st.s_height in
  if reachable st then begin
    spill st lo (lo + List.length ft.params);
    spill_local st (-1) lo
  end;
  push_list st ft.params

(* The pc of the next op, which is a branch target: what is absorbed
   before it is charged by an op of its own (a no-op copy of the zero
   slot), since the other paths into it did not run it. *)
let here st =
  (if st.s_pend > 0 then
     let w = take st 0 and z = zero st in
     out st (K_copy { w; s = z; d = z }));
  st.s_prod <- -1;
  st.s_len

(* A jump to control frame [c] from a branch taken when the value stack
   holds [h] values (after popping any condition), its payload in its
   slots. *)
let make_jump st c h =
  let n = List.length (label_types c) in
  let src = slot_of st (h - n) and dst = slot_of st c.cf_base in
  let j =
    {
      target = (if c.cf_is_loop then c.cf_loop_pc + Bool.to_int c.cf_poll else -1);
      moves = (if src = dst then 0 else n);
      src; dst; top = dst + n; poll = c.cf_poll;
    }
  in
  if not c.cf_is_loop then c.cf_patches <- j :: c.cf_patches;
  j

let new_jump () = { target = -1; moves = 0; src = 0; dst = 0; top = 0; poll = false }

let rec patch pc = function
  | [] -> ()
  | j :: js ->
      j.target <- pc;
      patch pc js

(* The last op, the producer of the operand at the stack top, writes
   local [x] instead when it cannot trap. *)
let retarget st x =
  match st.s_out.(st.s_prod) with
  | K_i32_binop r when nontrap_binop r.o -> r.w <- widen st r.w; r.d <- x; true
  | K_i32_binop_imm r when nontrap_binop r.o -> r.w <- widen st r.w; r.d <- x; true
  | K_i32_relop r -> r.w <- widen st r.w; r.d <- x; true
  | K_i32_relop_imm r -> r.w <- widen st r.w; r.d <- x; true
  | K_num r when nontrap_num r.n -> r.w <- widen st r.w; r.d <- x; true
  | K_const64 r -> r.w <- widen st r.w; r.d <- x; true
  | K_global_get r -> r.w <- widen st r.w; r.d <- x; true
  | K_select r -> r.w <- widen st r.w; r.d <- x; true
  | K_memory_size r -> r.w <- widen st r.w; r.d <- x; true
  | _ -> false

(* [local.set x] ([tee] keeps the value) of the operand at height [h].
   Returns whether the operand now reads from [x]. *)
let set_local st x h ~tee =
  spill_local st x h;
  let k = st.s_kind.(h) and y = st.s_arg.(h) in
  if k = in_local && y = x then (absorb st; false)
  else if k = in_local then (out st (K_copy { w = take st 1; s = y; d = x }); false)
  else if k = in_imm then (out st (K_const { w = take st 1; c = y; d = x }); false)
  else if producer st h <> None && retarget st x then tee
  else (out st (K_copy { w = take st 1; s = slot_of st h; d = x }); false)

(* [i32.eqz] of the operand at height [h]: a compare just made is
   negated in place. *)
let eqz st h =
  match producer st h with
  | Some (K_i32_relop r) -> r.o <- negate r.o; r.w <- widen st r.w
  | Some (K_i32_relop_imm r) -> r.o <- negate r.o; r.w <- widen st r.w
  | _ ->
      let a = operand st h in
      st.s_h <- h;
      prod st (K_i32_relop_imm { w = take st 1; o = Eq; a; c = 0; d = slot_of st h });
      st.s_kind.(h) <- in_slot

(* Take back the last op, of width [w], to emit it again as part of the
   next one; returns the width of both. *)
let unemit st w =
  st.s_len <- st.s_len - 1;
  if w > 1 then st.s_sites <- st.s_sites - 1;
  st.s_w <- w + take st 1;
  st.s_w

(* [br_if] on the i32 at height [h]: a compare just made becomes the
   branch. *)
let br_if st h j =
  match producer st h with
  | Some (K_i32_relop r) ->
      out st (K_br_cmp { w = unemit st r.w; o = r.o; a = r.a; b = r.b; j })
  | Some (K_i32_relop_imm r) ->
      out st (K_br_cmp_imm { w = unemit st r.w; o = r.o; a = r.a; c = r.c; j })
  | _ ->
      let c = operand st h in
      out st (K_br_if { w = take st 1; c; j })

let check_local st i =
  if i < 0 || i >= Array.length st.s_locals then
    invalid "%s: local %d out of range" st.s_fname i

let check_global st i =
  if i < 0 || i >= Array.length st.s_env.e_global_types then
    invalid "%s: global %d out of range" st.s_fname i

let check_mem st =
  if st.s_env.e_num_memories = 0 then invalid "%s: no memory" st.s_fname

(* Pop a unary op's operand of type [t]; when the op is reachable, [s_a]
   names its slot and [s_d] the slot of the result, which goes to the
   same height [s_h] (the caller pushes it after emitting the op). *)
let un st t =
  pop_expect st t;
  let h = st.s_height in
  reachable st
  && begin
       st.s_a <- operand st h;
       st.s_h <- h;
       st.s_d <- slot_of st h;
       true
     end

(* The same for a binary op: [s_a] and [s_b] name the operands' slots,
   or [s_b] is -1 and [s_c] holds the right one when [lit] allows an
   immediate there (2: on either side, the op commutes). *)
let bin ?(lit = 0) st t =
  pop_expect st t;
  pop_expect st t;
  let h = st.s_height in
  reachable st
  && begin
       st.s_h <- h;
       st.s_d <- slot_of st h;
       st.s_b <- -1;
       if lit > 0 && imm st (h + 1) then begin
         st.s_c <- st.s_arg.(h + 1);
         st.s_a <- operand st h
       end
       else if lit > 1 && imm st h then begin
         st.s_c <- st.s_arg.(h);
         st.s_a <- operand st (h + 1)
       end
       else begin
         st.s_b <- operand st (h + 1);
         st.s_a <- operand st h
       end;
       true
     end

(* A load's or store's address at height [h], as [s_a + s_b + s_c]: an
   add just made folds into the access, and an immediate is [s_c] over
   the zero slot. Returns the access's width. *)
let address st h =
  let z = zero st in
  match producer st h with
  | Some (K_i32_binop { o = Add; w; a; b; _ }) ->
      st.s_a <- a; st.s_b <- b; st.s_c <- 0; unemit st w
  | Some (K_i32_binop_imm { o = Add; w; a; c; _ }) ->
      st.s_a <- a; st.s_b <- z; st.s_c <- c; unemit st w
  | _ ->
      if imm st h then (st.s_a <- z; st.s_c <- st.s_arg.(h))
      else (st.s_a <- operand st h; st.s_c <- 0);
      st.s_b <- z;
      take st 1

let do_load st k t off =
  check_mem st;
  pop_expect st T_i32;
  let h = st.s_height in
  if reachable st then begin
    let w = address st h in
    out st (K_load { w; k; off; a = st.s_a; b = st.s_b; c = st.s_c; d = slot_of st h })
  end;
  push st t

let do_store st k t off =
  check_mem st;
  pop_expect st t;
  pop_expect st T_i32;
  let h = st.s_height in
  if reachable st then begin
    let v = operand st (h + 1) in
    let w = address st h in
    out st (K_store { w; k; off; a = st.s_a; b = st.s_b; c = st.s_c; v })
  end

(* A conversion that leaves the slot's bits as they are: folded, the
   operand stays where it is. *)
let same_bits st t into =
  st.s_fold
  && begin
       pop_expect st t;
       let h = st.s_height and r = reachable st in
       let k = if r then st.s_kind.(h) else in_slot and x = if r then st.s_arg.(h) else 0 in
       push st into;
       st.s_kind.(h) <- k;
       st.s_arg.(h) <- x;
       if r && st.s_since.(h) = st.s_epoch then st.s_own.(h) <- st.s_own.(h) + 1;
       absorb st;
       true
     end

let num st n =
  let t, arity, into = num_sig n in
  if if arity = 1 then un st t else bin st t then
    prod st (K_num { w = take st 1; n; a = st.s_a; b = (if arity = 1 then 0 else st.s_b); d = st.s_d });
  push st into

(* [local.get] or a 32-bit constant: pending when folding, else copied
   into its slot. *)
let pending st t kind x =
  push st t;
  let h = st.s_height - 1 in
  if st.s_fold then begin
    st.s_kind.(h) <- kind;
    st.s_arg.(h) <- x;
    st.s_own.(h) <- 1;
    st.s_since.(h) <- st.s_epoch;
    absorb st
  end
  else if reachable st then
    let w = take st 1 and d = slot_of st h in
    out st (if kind = in_local then K_copy { w; s = x; d } else K_const { w; c = x; d })

(* An op that produces into a fresh height: global.get, memory.size and
   the 64-bit constants. *)
let fresh st t mk =
  push st t;
  if reachable st then begin
    st.s_h <- st.s_height - 1;
    prod st (mk (take st 1) (slot_of st st.s_h))
  end

let rec instr st (i : instr) =
  (if st.s_poll = Poll_every && reachable st then
     out st (K_poll { w = take st 1; top = slot_of st st.s_height }));
  match i with
  | Nop -> ()
  | Unreachable ->
      if reachable st then out st (K_unreachable { w = take st 1 });
      mark_unreachable st
  | Block (bt, body) ->
      let ft = resolve_block_type st.s_env bt in
      params st ft;
      push_ctrl st ~is_loop:false ft.params ft.results 0;
      instrs st body;
      end_frame st
  | Loop (bt, body) ->
      let ft = resolve_block_type st.s_env bt in
      params st ft;
      push_ctrl st ~is_loop:true ft.params ft.results (here st);
      if st.s_poll = Poll_loops then
        out st (K_poll { w = take st 1; top = slot_of st st.s_height });
      instrs st body;
      end_frame st
  | If (bt, then_body, else_body) ->
      let ft = resolve_block_type st.s_env bt in
      pop_expect st T_i32;
      let h = st.s_height in
      params st ft;
      if_construct st ft then_body else_body (reachable st) h
  | Br idx ->
      let c = label_of st idx in
      let ts = label_types c in
      pop_list st ts;
      (if reachable st then
         let h = st.s_height + List.length ts in
         spill st st.s_height h;
         out st (K_br { w = take st 1; j = make_jump st c h }));
      mark_unreachable st
  | Br_if idx ->
      pop_expect st T_i32;
      let h = st.s_height in
      let c = label_of st idx in
      let ts = label_types c in
      pop_list st ts;
      if reachable st then spill st st.s_height h;
      push_list st ts;
      if reachable st then br_if st h (make_jump st c h)
  | Br_table (idxs, default) ->
      pop_expect st T_i32;
      let h = st.s_height in
      let cd = label_of st default in
      let ts = label_types cd in
      List.iter
        (fun i ->
          if List.length (label_types (label_of st i)) <> List.length ts then
            invalid "%s: br_table arity mismatch" st.s_fname)
        idxs;
      pop_list st ts;
      (if reachable st then begin
         spill st st.s_height h;
         let js = Array.of_list (List.map (fun i -> make_jump st (label_of st i) h) idxs) in
         let i = operand st h in
         out st (K_br_table { w = take st 1; i; js; dj = make_jump st cd h })
       end);
      mark_unreachable st
  | Return ->
      pop_list st st.s_results;
      (if reachable st then
         let s = if st.s_results = [] then 0 else operand st st.s_height in
         out st (K_return { w = take st 1; s }));
      mark_unreachable st
  | Call f ->
      if f < 0 || f >= Array.length st.s_env.e_func_types then
        invalid "%s: call index %d out of range" st.s_fname f;
      let ft = st.s_env.e_func_types.(f) in
      pop_list st ft.params;
      (if reachable st then
         let top = st.s_height + List.length ft.params in
         spill st st.s_height top;
         out st (K_call { w = take st 1; f; top = slot_of st top }));
      push_list st ft.results
  | Call_indirect (ti, tbl) ->
      let env = st.s_env in
      if ti < 0 || ti >= Array.length env.e_module.types then
        invalid "%s: call_indirect type %d out of range" st.s_fname ti;
      if tbl < 0 || tbl >= env.e_num_tables then
        invalid "%s: table %d out of range" st.s_fname tbl;
      let ft = env.e_module.types.(ti) in
      pop_expect st T_i32;
      let top = st.s_height in
      pop_list st ft.params;
      (if reachable st then
         let () = spill st st.s_height top in
         let i = operand st top in
         out st (K_call_indirect { w = take st 1; ti; tbl; i; top = slot_of st top }));
      push_list st ft.results
  | Drop ->
      let h = pop_any st in
      if st.s_fold then absorb st
      else if reachable st then
        let d = slot_of st h in
        out st (K_copy { w = take st 1; s = d; d })
  | Select ->
      pop_expect st T_i32;
      let i1 = pop_any st in
      let i2 = pop_any st in
      if i1 >= 0 && i2 >= 0 && st.s_types.(i1) <> st.s_types.(i2) then
        invalid "%s: select operand mismatch" st.s_fname;
      let h = st.s_height in
      (if reachable st then
         let c = operand st (h + 2) in
         let b = operand st (h + 1) in
         let a = operand st h in
         st.s_h <- h;
         prod st (K_select { w = take st 1; a; b; c; d = slot_of st h }));
      push st
        (if i1 >= 0 then st.s_types.(i1)
         else if i2 >= 0 then st.s_types.(i2)
         else T_i32 (* unreachable; arbitrary *))
  | Local_get i ->
      check_local st i;
      pending st st.s_locals.(i) in_local i
  | Local_set i ->
      check_local st i;
      pop_expect st st.s_locals.(i);
      if reachable st then ignore (set_local st i st.s_height ~tee:false)
  | Local_tee i ->
      check_local st i;
      let t = st.s_locals.(i) in
      pop_expect st t;
      let h = st.s_height in
      let r = reachable st in
      let now_local = r && set_local st i h ~tee:true in
      (* the operand stays where it is, or now reads from the local; a
         polymorphic pop leaves [h] past the arrays' end *)
      let k = if r then st.s_kind.(h) else in_slot and x = if r then st.s_arg.(h) else 0 in
      push st t;
      st.s_kind.(h) <- (if now_local then in_local else k);
      st.s_arg.(h) <- (if now_local then i else x)
  | Global_get g ->
      check_global st g;
      fresh st st.s_env.e_global_types.(g).gt_type (fun w d -> K_global_get { w; g; d })
  | Global_set g ->
      check_global st g;
      let gt = st.s_env.e_global_types.(g) in
      if gt.gt_mut = Immutable then invalid "%s: global %d is immutable" st.s_fname g;
      pop_expect st gt.gt_type;
      if reachable st then
        let a = operand st st.s_height in
        out st (K_global_set { w = take st 1; g; a })
  | I32_load m -> do_load st L_i32 T_i32 m.offset
  | I64_load m -> do_load st L_i64 T_i64 m.offset
  | F32_load m -> do_load st L_f32 T_f32 m.offset
  | F64_load m -> do_load st L_f64 T_f64 m.offset
  | I32_load8 (e, m) -> do_load st (L_i32_8 e) T_i32 m.offset
  | I32_load16 (e, m) -> do_load st (L_i32_16 e) T_i32 m.offset
  | I64_load8 (e, m) -> do_load st (L_i64_8 e) T_i64 m.offset
  | I64_load16 (e, m) -> do_load st (L_i64_16 e) T_i64 m.offset
  | I64_load32 (e, m) -> do_load st (L_i64_32 e) T_i64 m.offset
  | I32_store m -> do_store st S_i32 T_i32 m.offset
  | I64_store m -> do_store st S_i64 T_i64 m.offset
  | F32_store m -> do_store st S_f32 T_f32 m.offset
  | F64_store m -> do_store st S_f64 T_f64 m.offset
  | I32_store8 m -> do_store st S_i32_8 T_i32 m.offset
  | I32_store16 m -> do_store st S_i32_16 T_i32 m.offset
  | I64_store8 m -> do_store st S_i64_8 T_i64 m.offset
  | I64_store16 m -> do_store st S_i64_16 T_i64 m.offset
  | I64_store32 m -> do_store st S_i64_32 T_i64 m.offset
  | Memory_size ->
      check_mem st;
      fresh st T_i32 (fun w d -> K_memory_size { w; d })
  | Memory_grow ->
      check_mem st;
      if un st T_i32 then out st (K_memory_grow { w = take st 1; a = st.s_a; d = st.s_d });
      push st T_i32
  | Memory_fill | Memory_copy ->
      check_mem st;
      pop_expect st T_i32;
      pop_expect st T_i32;
      pop_expect st T_i32;
      if reachable st then begin
        let h = st.s_height in
        let c = operand st (h + 2) in
        let b = operand st (h + 1) in
        let a = operand st h in
        let w = take st 1 in
        out st
          (if i = Memory_fill then K_memory_fill { w; a; b; c } else K_memory_copy { w; a; b; c })
      end
  | I32_const v -> pending st T_i32 in_imm (Int32.to_int v)
  | F32_const v -> pending st T_f32 in_imm (Int32.to_int v)
  | I64_const c -> fresh st T_i64 (fun w d -> K_const64 { w; c; d })
  | F64_const c -> fresh st T_f64 (fun w d -> K_const64 { w; c; d })
  | I32_eqz ->
      pop_expect st T_i32;
      if reachable st then eqz st st.s_height;
      push st T_i32
  | I32_binop o ->
      if bin ~lit:(if commutes o then 2 else 1) st T_i32 then
        prod st
          (if st.s_b < 0 then K_i32_binop_imm { w = take st 1; o; a = st.s_a; c = st.s_c; d = st.s_d }
           else K_i32_binop { w = take st 1; o; a = st.s_a; b = st.s_b; d = st.s_d });
      push st T_i32
  | I32_relop o ->
      if bin ~lit:1 st T_i32 then
        prod st
          (if st.s_b < 0 then K_i32_relop_imm { w = take st 1; o; a = st.s_a; c = st.s_c; d = st.s_d }
           else K_i32_relop { w = take st 1; o; a = st.s_a; b = st.s_b; d = st.s_d });
      push st T_i32
  | I64_extend_i32 SX when same_bits st T_i32 T_i64 -> ()
  | I32_reinterpret_f32 when same_bits st T_f32 T_i32 -> ()
  | I64_reinterpret_f64 when same_bits st T_f64 T_i64 -> ()
  | F32_reinterpret_i32 when same_bits st T_i32 T_f32 -> ()
  | F64_reinterpret_i64 when same_bits st T_i64 T_f64 -> ()
  | I64_eqz | I32_unop _ | I64_unop _ | I64_binop _ | I64_relop _ | F32_unop _ | F64_unop _
  | F32_binop _ | F64_binop _ | F32_relop _ | F64_relop _ | I32_wrap_i64 | I64_extend_i32 _
  | I32_trunc_f32 _ | I32_trunc_f64 _ | I64_trunc_f32 _ | I64_trunc_f64 _ | F32_convert_i32 _
  | F32_convert_i64 _ | F64_convert_i32 _ | F64_convert_i64 _ | F32_demote_f64 | F64_promote_f32
  | I32_reinterpret_f32 | I64_reinterpret_f64 | F32_reinterpret_i32 | F64_reinterpret_i64
  | I32_extend8_s | I32_extend16_s | I64_extend8_s | I64_extend16_s | I64_extend32_s ->
      num st i

and instrs st = function
  | [] -> ()
  | i :: is ->
      instr st i;
      instrs st is

(* Close an arm whose results, if it falls through, go into their slots
   above its base; returns whether it falls through. *)
and arm_results st ts =
  let c = cur st in
  if not c.cf_unreachable then begin
    spill st c.cf_base st.s_height;
    pop_list st ts
  end;
  truncate st c.cf_base;
  pop_ctrl st;
  not c.cf_unreachable

and if_construct st ft then_body else_body was_reachable h =
  (* Layout: [br_if_false -> else] then_code [br -> end] else_code end;
     the condition at height [h] is negated into the branch. *)
  let to_else = new_jump () in
  if was_reachable then begin
    eqz st h;
    br_if st h to_else
  end;
  push_ctrl st ~is_loop:false ft.params ft.results 0;
  instrs st then_body;
  let c = cur st in
  let skips_else = was_reachable && arm_results st ft.results in
  let to_end = new_jump () in
  if skips_else then out st (K_br { w = take st 1; j = to_end });
  if was_reachable then to_else.target <- here st;
  (* Else arm. *)
  push_list st ft.params;
  push_ctrl st ~is_loop:false ft.params ft.results 0;
  instrs st else_body;
  let c2 = cur st in
  ignore (arm_results st ft.results);
  (* Patch branches recorded against either arm's frame to the join. *)
  if skips_else || c.cf_patches <> [] || c2.cf_patches <> [] then begin
    let join = here st in
    patch join c.cf_patches;
    patch join c2.cf_patches;
    if skips_else then to_end.target <- join
  end;
  (* Push results onto the enclosing frame. *)
  push_list st ft.results

and end_frame st =
  let c = cur st in
  ignore (arm_results st c.cf_results);
  if c.cf_patches <> [] then patch (here st) c.cf_patches;
  push_list st c.cf_results

let rec fill a i = function
  | [] -> i
  | t :: ts ->
      a.(i) <- t;
      fill a (i + 1) ts

let compile_func st (f : func) : fcode =
  let ftype = st.s_env.e_module.types.(f.f_type) in
  let locals = Array.make (List.length ftype.params + List.length f.f_locals) T_i32 in
  ignore (fill locals (fill locals 0 ftype.params) f.f_locals);
  st.s_fname <- f.f_name;
  st.s_locals <- locals;
  st.s_results <- ftype.results;
  st.s_height <- 0;
  st.s_max_height <- 0;
  st.s_ctrls <- [];
  st.s_len <- 0;
  st.s_pend <- 0;
  st.s_prod <- -1;
  (* Function body is an implicit block with the function's result type. *)
  push_ctrl st ~is_loop:false [] ftype.results 0;
  if st.s_poll = Poll_funcs then out st (K_poll { w = take st 1; top = slot_of st 0 });
  instrs st f.f_body;
  let c = cur st in
  (* A fall-through result is read where it is, unless branches join it. *)
  if not c.cf_unreachable then begin
    if c.cf_patches <> [] then spill st 0 st.s_height;
    pop_list st ftype.results
  end;
  if c.cf_patches <> [] then patch (here st) c.cf_patches;
  let s =
    if ftype.results = [] then 0
    else if c.cf_unreachable || c.cf_patches <> [] then slot_of st 0
    else operand st 0
  in
  out st (K_return { w = take st 1; s });
  { fc_name = f.f_name; fc_type = ftype;
    fc_arity = List.length ftype.results;
    fc_nparams = List.length ftype.params;
    fc_locals = locals; fc_max_height = 1 + st.s_max_height;
    fc_ops = Array.sub st.s_out 0 st.s_len }

(* ------------------------------------------------------------------ *)
(* Static call info (for the reachability analyzer)                     *)
(* ------------------------------------------------------------------ *)

(** Exact direct callee indices of a compiled function. Computed over
    the validated flat code, so calls in statically unreachable code
    (dropped by the compiler) do not appear. *)
let direct_calls (fc : fcode) : int list =
  Array.to_list fc.fc_ops
  |> List.filter_map (function K_call { f; _ } -> Some f | _ -> None)
  |> List.sort_uniq compare

(** Type indices used by [call_indirect] in a compiled function. The
    analyzer over-approximates the target set by matching these against
    type-compatible elem-segment entries. *)
let indirect_call_types (fc : fcode) : int list =
  Array.to_list fc.fc_ops
  |> List.filter_map (function K_call_indirect { ti; _ } -> Some ti | _ -> None)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Module-level validation context                                      *)
(* ------------------------------------------------------------------ *)

let build_env (m : module_) : env =
  Array.iter
    (fun (ft : func_type) ->
      if List.length ft.results > 1 then
        invalid "multi-value results not supported")
    m.types;
  let import_func_types =
    List.filter_map
      (fun i ->
        match i.imp_desc with
        | Id_func t ->
            if t < 0 || t >= Array.length m.types then
              invalid "import %s.%s: type index out of range" i.imp_module
                i.imp_name;
            Some m.types.(t)
        | _ -> None)
      m.imports
  in
  let local_func_types =
    Array.to_list
      (Array.map
         (fun f ->
           if f.f_type < 0 || f.f_type >= Array.length m.types then
             invalid "function type index out of range";
           m.types.(f.f_type))
         m.funcs)
  in
  let import_global_types =
    List.filter_map
      (fun i -> match i.imp_desc with Id_global g -> Some g | _ -> None)
      m.imports
  in
  let local_global_types =
    Array.to_list (Array.map (fun g -> g.g_type) m.globals)
  in
  {
    e_module = m;
    e_func_types = Array.of_list (import_func_types @ local_func_types);
    e_global_types = Array.of_list (import_global_types @ local_global_types);
    e_num_memories = num_imported_memories m + Array.length m.memories;
    e_num_tables = num_imported_tables m + Array.length m.tables;
  }

type compiled = {
  cm_module : module_;
  cm_env : env;
  cm_funcs : fcode array; (* local functions only, in definition order *)
  cm_fuse : fuse_stats; (* how far folding shrank this image *)
}

(** Validate and compile every local function of [m] in one pass over
    each body. [fuse] (default on) folds operand moves into the ops that
    use them; the unfolded form is the reference that the gate's
    differential and the tests compare the folded one against.

    An image keeps only what links and runs it: its [cm_module] (which is
    also [cm_env.e_module]) is [m] with every [f_body] emptied, so the
    decoded instruction lists die with the caller's [m] while a cached
    image lives on. Types, imports, [f_type]/[f_locals]/[f_name], tables,
    memories, globals, segments, exports and start all stay. An image's
    module is not for re-encoding. *)
let compile_module ?(poll = Poll_none) ?(fuse = true) (m : module_) : compiled =
  let env = build_env { m with funcs = Array.map (fun f -> { f with f_body = [] }) m.funcs } in
  (* Validate that exports, segments and the start function refer to
     existing indices, and that memory limits are well formed. *)
  let check what n lim = if n < 0 || n >= lim then invalid "%s %d out of range" what n in
  let nfuncs = Array.length env.e_func_types in
  List.iter
    (fun e ->
      let check kind = check ("export " ^ e.exp_name ^ ": " ^ kind) in
      match e.exp_desc with
      | Ed_func i -> check "function" i nfuncs
      | Ed_global i -> check "global" i (Array.length env.e_global_types)
      | Ed_memory i -> check "memory" i env.e_num_memories
      | Ed_table i -> check "table" i env.e_num_tables)
    m.exports;
  List.iter
    (fun e ->
      check "elem segment table" e.e_table env.e_num_tables;
      List.iter (fun i -> check "elem segment function" i nfuncs) e.e_funcs)
    m.elems;
  List.iter (fun d -> check "data segment memory" d.d_mem env.e_num_memories) m.datas;
  Option.iter (fun i -> check "start function" i nfuncs) m.start;
  Array.iter
    (fun l ->
      (* at most 65536 pages of 64 KiB: a 32-bit address space *)
      let max = Option.value l.lim_max ~default:65536 in
      if l.lim_min > max || max > 65536 then invalid "bad memory limits")
    m.memories;
  let st =
    {
      s_env = env; s_poll = poll; s_fold = fuse; s_fname = ""; s_locals = [||];
      s_results = []; s_types = Array.make 64 T_i32; s_kind = Array.make 64 in_slot;
      s_arg = Array.make 64 0; s_own = Array.make 64 0; s_since = Array.make 64 0;
      s_epoch = 0; s_height = 0; s_max_height = 0; s_ctrls = [];
      s_out = Array.make 128 (K_unreachable { w = 0 }); s_len = 0; s_pend = 0;
      s_prod = -1; s_prod_h = 0; s_w = 0; s_h = 0; s_a = 0; s_b = 0; s_c = 0; s_d = 0;
      s_ops_before = 0; s_sites = 0;
    }
  in
  let funcs = Array.map (compile_func st) m.funcs in
  let fs =
    {
      fs_ops_before = st.s_ops_before;
      fs_ops_after = Array.fold_left (fun a fc -> a + Array.length fc.fc_ops) 0 funcs;
      fs_sites = st.s_sites;
    }
  in
  { cm_module = env.e_module; cm_env = env; cm_funcs = funcs; cm_fuse = fs }
