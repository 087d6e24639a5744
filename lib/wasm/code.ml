(** Validation + flattening of structured instructions into executable
    flat code with resolved jump targets, with macro-op fusion done as
    the ops are emitted: one walk over each function body.

    Structured control (block/loop/if/br/br_table) is compiled into
    [K_br]-style ops carrying [(target_pc, arity, drop)]: at runtime the top
    [arity] values are the branch payload and [drop] slots beneath them are
    discarded. The drop counts are computed statically from the validator's
    stack heights, so the interpreter needs no label bookkeeping at all —
    the sidetable technique used by in-place interpreters.

    The compiler also inserts [K_poll] safepoints according to the chosen
    scheme; this is where the WALI signal-delivery experiments (paper
    Table 3) get their loop/function/every-instruction variants. *)

open Types
open Ast

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type jump = { mutable target : int; arity : int; drop : int }

type op =
  | K_unreachable
  | K_br of jump
  | K_br_if of jump
  | K_br_table of jump array * jump
  | K_return
  | K_call of int
  | K_call_indirect of int * int
  | K_drop
  | K_select
  | K_local_get of int
  | K_local_set of int
  | K_local_tee of int
  | K_global_get of int
  | K_global_set of int
  | K_load of load_kind * int (* offset *)
  | K_store of store_kind * int
  | K_memory_size
  | K_memory_grow
  | K_memory_fill
  | K_memory_copy
  | K_const of int (* an i32's or f32's bits, sign-extended from 32 *)
  | K_const64 of int64 (* an i64's or f64's bits *)
  | K_i32_eqz
  | K_i64_eqz
  | K_i32_unop of int_unop
  | K_i64_unop of int_unop
  | K_i32_binop of int_binop
  | K_i64_binop of int_binop
  | K_i32_relop of int_relop
  | K_i64_relop of int_relop
  | K_f32_unop of float_unop
  | K_f64_unop of float_unop
  | K_f32_binop of float_binop
  | K_f64_binop of float_binop
  | K_f32_relop of float_relop
  | K_f64_relop of float_relop
  | K_cvt of cvt
  | K_poll
  (* Superinstructions, emitted by [compile_module ~fuse]: each stands
     for the short op sequence named by its constructor and gets a dedicated
     unboxed handler in {!Interp}. No pattern contains [K_poll], a call
     or a branch *interior*, so safepoint delivery, the analyzer's call
     graph and jump targets are all untouched by fusion. *)
  | F_ll_i32_binop of int * int * int_binop
      (* local_get a; local_get b; i32.binop *)
  | F_lc_i32_binop of int * int * int_binop
      (* local_get a; i32.const c; i32.binop *)
  | F_lc_i32_binop_set of int * int * int_binop * int
      (* local_get a; i32.const c; i32.binop; local_set d *)
  | F_const_i32_binop of int * int_binop
      (* i32.const c; i32.binop — tos := tos op c *)
  | F_i32_binop_set of int_binop * int
      (* i32.binop; local_set d — sink the result into a local *)
  | F_i32_eqz_br_if of jump
      (* i32.eqz; br_if — branch-if-zero *)
  | F_i32_relop_eqz_br_if of int_relop * jump
      (* i32.relop; i32.eqz; br_if — branch on the *negated* compare;
         minicc lowers `if (a < b)` fall-through edges this way *)
  | F_ll_i32_relop_eqz_br_if of int * int * int_relop * jump
      (* local_get a; local_get b; i32.relop; i32.eqz; br_if *)
  | F_lc_i32_relop_eqz_br_if of int * int * int_relop * jump
      (* local_get a; i32.const c; i32.relop; i32.eqz; br_if *)
  | F_l_i32_binop of int * int_binop
      (* local_get b; i32.binop — tos := tos op local b *)
  | F_i32_binop_load of int_binop * load_kind * int
      (* i32.binop; load — address computed by the binop *)
  | F_i32_binop_store of int_binop * store_kind * int
      (* i32.binop; store — store the freshly computed value *)
  | F_l_store of int * store_kind * int
      (* local_get v; store — mem[pop + off] := local v *)
  | F_set_get of int
      (* local_set i; local_get i — a tee spelled as two ops *)
  | F_i32_eqz_eqz
      (* i32.eqz; i32.eqz — normalize to 0/1 *)
  | F_const_i64_extend_s of int
      (* i32.const c; i64.extend_i32_s — push c, already sign-extended *)
  | F_l_i64_extend_s of int
      (* local_get a; i64.extend_i32_s — push local a's slot unchanged:
         an i32 slot holds its value sign-extended *)

and load_kind =
  | L_i32 | L_i64 | L_f32 | L_f64
  | L_i32_8 of extension | L_i32_16 of extension
  | L_i64_8 of extension | L_i64_16 of extension | L_i64_32 of extension

and store_kind =
  | S_i32 | S_i64 | S_f32 | S_f64
  | S_i32_8 | S_i32_16 | S_i64_8 | S_i64_16 | S_i64_32

and cvt =
  | C_i32_wrap_i64
  | C_i64_extend_i32 of extension
  | C_i32_trunc_f32 of extension
  | C_i32_trunc_f64 of extension
  | C_i64_trunc_f32 of extension
  | C_i64_trunc_f64 of extension
  | C_f32_convert_i32 of extension
  | C_f32_convert_i64 of extension
  | C_f64_convert_i32 of extension
  | C_f64_convert_i64 of extension
  | C_f32_demote_f64
  | C_f64_promote_f32
  | C_i32_reinterpret_f32
  | C_i64_reinterpret_f64
  | C_f32_reinterpret_i32
  | C_f64_reinterpret_i64
  | C_i32_extend8_s
  | C_i32_extend16_s
  | C_i64_extend8_s
  | C_i64_extend16_s
  | C_i64_extend32_s

type poll_scheme = Poll_none | Poll_loops | Poll_funcs | Poll_every

type fcode = {
  fc_name : string;
  fc_type : func_type;
  fc_arity : int; (* List.length fc_type.results, precomputed for returns *)
  fc_nparams : int; (* List.length fc_type.params, precomputed for calls *)
  fc_locals : val_type array; (* params followed by extra locals *)
  fc_max_height : int; (* operand-stack slots the body can use above its locals *)
  fc_ops : op array;
}

(* ------------------------------------------------------------------ *)
(* Macro-op fusion                                                      *)
(* ------------------------------------------------------------------ *)

(** How many original ops an op stands for (1 for plain ops). The
    interpreter charges this to [machine.steps], so instruction counts,
    profile weights and replay coordinates are byte-identical between the
    fused and unfused engines. *)
let op_width = function
  | F_ll_i32_relop_eqz_br_if _ | F_lc_i32_relop_eqz_br_if _ -> 5
  | F_lc_i32_binop_set _ -> 4
  | F_ll_i32_binop _ | F_lc_i32_binop _ | F_i32_relop_eqz_br_if _ -> 3
  | F_const_i32_binop _ | F_i32_binop_set _ | F_i32_eqz_br_if _
  | F_l_i32_binop _ | F_i32_binop_load _ | F_i32_binop_store _ | F_l_store _
  | F_set_get _ | F_i32_eqz_eqz | F_const_i64_extend_s _ | F_l_i64_extend_s _ ->
      2
  | _ -> 1

type fuse_stats = {
  fs_ops_before : int; (* flat ops over all functions, pre-fusion *)
  fs_ops_after : int;
  fs_sites : int; (* superinstructions emitted *)
}

(* A window only fuses when every trap-capable op is the window's *last*
   op: the handler charges the full width to [steps] before executing, so
   a trap from an interior op would report a different instruction count
   than the unfused engine. Integer div/rem are the only trapping binops. *)
let nontrap_binop = function
  | Ast.Div_s | Ast.Div_u | Ast.Rem_s | Ast.Rem_u -> false
  | _ -> true

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

(* The longest fusion pattern, in ops. *)
let window = 5

(* One compile pass's state: built once per module, reset per function,
   so compiling a function builds no closures. Ops are validated,
   flattened and fused as they are emitted: each goes into the pending
   fusion window, whose head becomes a superinstruction (or stays itself)
   once the window is full, and the window is flushed whenever the next
   pc becomes a branch target, so no superinstruction spans one. *)
type state = {
  s_env : env;
  s_poll : poll_scheme;
  s_fuse : bool;
  mutable s_fname : string;
  mutable s_locals : val_type array;
  mutable s_results : val_type list;
  mutable s_types : val_type array; (* operand types, [s_height] deep *)
  mutable s_height : int;
  mutable s_max_height : int;
  mutable s_ctrls : ctrl list;
  mutable s_out : op array;
      (* the module's one scratch emission buffer: 128 ops to start, under
         the minor heap's 256-word limit, and [out] doubles it *)
  mutable s_len : int; (* this function's ops in [s_out] *)
  s_win : op array; (* a ring of 8 holding the pending fusion window: *)
  mutable s_whead : int; (* its first op's index *)
  mutable s_wlen : int; (* and its length *)
  mutable s_ops_before : int; (* ops emitted before fusion, module total *)
  mutable s_sites : int; (* superinstructions emitted, module total *)
}

let cur st =
  match st.s_ctrls with [] -> invalid "control stack underflow" | c :: _ -> c

let reachable st = not (cur st).cf_unreachable

let push st t =
  if st.s_height = Array.length st.s_types then begin
    let a = Array.make (2 * st.s_height) T_i32 in
    Array.blit st.s_types 0 a 0 st.s_height;
    st.s_types <- a
  end;
  st.s_types.(st.s_height) <- t;
  st.s_height <- st.s_height + 1;
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
    }
    :: st.s_ctrls

let pop_ctrl st = st.s_ctrls <- List.tl st.s_ctrls

(* Reset the stack to a frame's base: discards what an arm left behind,
   which only unreachable code can do; later pops are polymorphic. *)
let truncate st base = if st.s_height > base then st.s_height <- base

let mark_unreachable st =
  let c = cur st in
  truncate st c.cf_base;
  c.cf_unreachable <- true

let rec nth_label st idx n = function
  | [] -> invalid "%s: branch depth %d out of range" st.s_fname idx
  | c :: rest -> if n = 0 then c else nth_label st idx (n - 1) rest

let label_of st idx = nth_label st idx idx st.s_ctrls

(* Branch payload types for label l. *)
let label_types c = if c.cf_is_loop then c.cf_params else c.cf_results

(* Build a jump record for a branch to control frame [c] taken when the
   value stack currently holds [h] values (after popping any condition). *)
let make_jump c h =
  let dest_height =
    c.cf_base + List.length (if c.cf_is_loop then c.cf_params else c.cf_results)
  in
  let j =
    {
      target = (if c.cf_is_loop then c.cf_loop_pc else -1);
      arity = List.length (label_types c);
      drop = Int.max 0 (h - dest_height) (* negative in unreachable code only *);
    }
  in
  if not c.cf_is_loop then c.cf_patches <- j :: c.cf_patches;
  j

let rec patch pc = function
  | [] -> ()
  | j :: js ->
      j.target <- pc;
      patch pc js

let out st op =
  if st.s_len = Array.length st.s_out then begin
    let b = Array.make (2 * st.s_len) K_return in
    Array.blit st.s_out 0 b 0 st.s_len;
    st.s_out <- b
  end;
  st.s_out.(st.s_len) <- op;
  st.s_len <- st.s_len + 1

(* Window op [k]. Past the window's end it reads as [K_unreachable],
   which no pattern contains, so one match on the window, longest
   patterns first, picks the superinstruction. A [K_const] right before
   an i32 binop, relop or [i64.extend_i32_s] is its operand, so in
   validated code it is an i32 and its [int] is the value the handler
   computes with. [i64.extend_i32_u] never fuses. *)
let win st k = if k < st.s_wlen then st.s_win.((st.s_whead + k) land 7) else K_unreachable

let superop st =
  match (st.s_win.(st.s_whead), win st 1, win st 2, win st 3, win st 4) with
  | K_local_get a, K_local_get b, K_i32_relop o, K_i32_eqz, K_br_if j ->
      F_ll_i32_relop_eqz_br_if (a, b, o, j)
  | K_local_get a, K_const c, K_i32_relop o, K_i32_eqz, K_br_if j ->
      F_lc_i32_relop_eqz_br_if (a, c, o, j)
  | K_local_get a, K_const c, K_i32_binop o, K_local_set d, _ when nontrap_binop o ->
      F_lc_i32_binop_set (a, c, o, d)
  | K_local_get a, K_local_get b, K_i32_binop o, _, _ -> F_ll_i32_binop (a, b, o)
  | K_local_get a, K_const c, K_i32_binop o, _, _ -> F_lc_i32_binop (a, c, o)
  | K_i32_relop o, K_i32_eqz, K_br_if j, _, _ -> F_i32_relop_eqz_br_if (o, j)
  | K_local_get a, K_i32_binop o, _, _, _ -> F_l_i32_binop (a, o)
  | K_local_get a, K_store (k, off), _, _, _ -> F_l_store (a, k, off)
  | K_const c, K_i32_binop o, _, _, _ -> F_const_i32_binop (c, o)
  | K_i32_binop o, K_local_set d, _, _, _ when nontrap_binop o ->
      F_i32_binop_set (o, d)
  | K_i32_binop o, K_load (k, off), _, _, _ when nontrap_binop o ->
      F_i32_binop_load (o, k, off)
  | K_i32_binop o, K_store (k, off), _, _, _ when nontrap_binop o ->
      F_i32_binop_store (o, k, off)
  | K_i32_eqz, K_br_if j, _, _, _ -> F_i32_eqz_br_if j
  | K_i32_eqz, K_i32_eqz, _, _, _ -> F_i32_eqz_eqz
  | K_local_set s, K_local_get g, _, _, _ when s = g -> F_set_get s
  | K_const c, K_cvt (C_i64_extend_i32 SX), _, _, _ -> F_const_i64_extend_s c
  | K_local_get a, K_cvt (C_i64_extend_i32 SX), _, _, _ -> F_l_i64_extend_s a
  | o, _, _, _, _ -> o

(* Emit the window head's superinstruction (or the head itself) and drop
   the ops it stands for. *)
let fuse_head st =
  let s = superop st in
  let w = op_width s in
  if w > 1 then st.s_sites <- st.s_sites + 1;
  out st s;
  st.s_whead <- (st.s_whead + w) land 7;
  st.s_wlen <- st.s_wlen - w

let flush st = while st.s_wlen > 0 do fuse_head st done

let emit st op =
  st.s_ops_before <- st.s_ops_before + 1;
  if not st.s_fuse then out st op
  else begin
    st.s_win.((st.s_whead + st.s_wlen) land 7) <- op;
    st.s_wlen <- st.s_wlen + 1;
    if st.s_wlen = window then fuse_head st
  end

(* The pc of the next op, which is a branch target: the window before it
   is flushed first. *)
let here st =
  flush st;
  st.s_len

let emit_r st op = if reachable st then emit st op

let check_local st i =
  if i < 0 || i >= Array.length st.s_locals then
    invalid "%s: local %d out of range" st.s_fname i

let check_global st i =
  if i < 0 || i >= Array.length st.s_env.e_global_types then
    invalid "%s: global %d out of range" st.s_fname i

let check_mem st =
  if st.s_env.e_num_memories = 0 then invalid "%s: no memory" st.s_fname

let do_load st kind t off =
  check_mem st;
  pop_expect st T_i32;
  push st t;
  emit_r st (K_load (kind, off))

let do_store st kind t off =
  check_mem st;
  pop_expect st t;
  pop_expect st T_i32;
  emit_r st (K_store (kind, off))

let unop st t into op =
  pop_expect st t;
  push st into;
  emit_r st op

let binop st t into op =
  pop_expect st t;
  pop_expect st t;
  push st into;
  emit_r st op

let rec instr st (i : instr) =
  (if st.s_poll = Poll_every && reachable st then emit st K_poll);
  match i with
  | Nop -> ()
  | Unreachable ->
      emit_r st K_unreachable;
      mark_unreachable st
  | Block (bt, body) ->
      let ft = resolve_block_type st.s_env bt in
      pop_list st ft.params;
      push_list st ft.params;
      push_ctrl st ~is_loop:false ft.params ft.results 0;
      instrs st body;
      end_frame st
  | Loop (bt, body) ->
      let ft = resolve_block_type st.s_env bt in
      pop_list st ft.params;
      push_list st ft.params;
      (* Under [Poll_none]/[Poll_funcs] this flushes even a header that
         nothing branches back to; under [Poll_loops] the [K_poll] there
         ends every window anyway. *)
      push_ctrl st ~is_loop:true ft.params ft.results (here st);
      if st.s_poll = Poll_loops then emit st K_poll;
      instrs st body;
      end_frame st
  | If (bt, then_body, else_body) ->
      let ft = resolve_block_type st.s_env bt in
      pop_expect st T_i32;
      pop_list st ft.params;
      push_list st ft.params;
      if_construct st ft then_body else_body (reachable st)
  | Br idx ->
      let c = label_of st idx in
      let ts = label_types c in
      pop_list st ts;
      if reachable st then emit st (K_br (make_jump c (st.s_height + List.length ts)));
      mark_unreachable st
  | Br_if idx ->
      pop_expect st T_i32;
      let c = label_of st idx in
      pop_list st (label_types c);
      push_list st (label_types c);
      if reachable st then emit st (K_br_if (make_jump c st.s_height))
  | Br_table (idxs, default) ->
      pop_expect st T_i32;
      let cd = label_of st default in
      let ts = label_types cd in
      List.iter
        (fun i ->
          if List.length (label_types (label_of st i)) <> List.length ts then
            invalid "%s: br_table arity mismatch" st.s_fname)
        idxs;
      pop_list st ts;
      (if reachable st then
         let h = st.s_height + List.length ts in
         let jumps = Array.of_list (List.map (fun i -> make_jump (label_of st i) h) idxs) in
         emit st (K_br_table (jumps, make_jump cd h)));
      mark_unreachable st
  | Return ->
      pop_list st st.s_results;
      emit_r st K_return;
      mark_unreachable st
  | Call fi ->
      if fi < 0 || fi >= Array.length st.s_env.e_func_types then
        invalid "%s: call index %d out of range" st.s_fname fi;
      let ft = st.s_env.e_func_types.(fi) in
      pop_list st ft.params;
      push_list st ft.results;
      emit_r st (K_call fi)
  | Call_indirect (ti, tbl) ->
      let env = st.s_env in
      if ti < 0 || ti >= Array.length env.e_module.types then
        invalid "%s: call_indirect type %d out of range" st.s_fname ti;
      if tbl < 0 || tbl >= env.e_num_tables then
        invalid "%s: table %d out of range" st.s_fname tbl;
      let ft = env.e_module.types.(ti) in
      pop_expect st T_i32;
      pop_list st ft.params;
      push_list st ft.results;
      emit_r st (K_call_indirect (ti, tbl))
  | Drop ->
      ignore (pop_any st);
      emit_r st K_drop
  | Select ->
      pop_expect st T_i32;
      let i1 = pop_any st in
      let i2 = pop_any st in
      if i1 >= 0 && i2 >= 0 && st.s_types.(i1) <> st.s_types.(i2) then
        invalid "%s: select operand mismatch" st.s_fname;
      push st
        (if i1 >= 0 then st.s_types.(i1)
         else if i2 >= 0 then st.s_types.(i2)
         else T_i32 (* unreachable; arbitrary *));
      emit_r st K_select
  | Local_get i ->
      check_local st i;
      push st st.s_locals.(i);
      emit_r st (K_local_get i)
  | Local_set i ->
      check_local st i;
      pop_expect st st.s_locals.(i);
      emit_r st (K_local_set i)
  | Local_tee i ->
      check_local st i;
      unop st st.s_locals.(i) st.s_locals.(i) (K_local_tee i)
  | Global_get i ->
      check_global st i;
      push st st.s_env.e_global_types.(i).gt_type;
      emit_r st (K_global_get i)
  | Global_set i ->
      check_global st i;
      let g = st.s_env.e_global_types.(i) in
      if g.gt_mut = Immutable then invalid "%s: global %d is immutable" st.s_fname i;
      pop_expect st g.gt_type;
      emit_r st (K_global_set i)
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
      push st T_i32;
      emit_r st K_memory_size
  | Memory_grow ->
      check_mem st;
      unop st T_i32 T_i32 K_memory_grow
  | Memory_fill ->
      check_mem st;
      pop_expect st T_i32;
      pop_expect st T_i32;
      pop_expect st T_i32;
      emit_r st K_memory_fill
  | Memory_copy ->
      check_mem st;
      pop_expect st T_i32;
      pop_expect st T_i32;
      pop_expect st T_i32;
      emit_r st K_memory_copy
  | I32_const v ->
      push st T_i32;
      emit_r st (K_const (Int32.to_int v))
  | I64_const v ->
      push st T_i64;
      emit_r st (K_const64 v)
  | F32_const v ->
      push st T_f32;
      emit_r st (K_const (Int32.to_int v))
  | F64_const v ->
      push st T_f64;
      emit_r st (K_const64 v)
  | I32_eqz -> unop st T_i32 T_i32 K_i32_eqz
  | I64_eqz -> unop st T_i64 T_i32 K_i64_eqz
  | I32_unop o -> unop st T_i32 T_i32 (K_i32_unop o)
  | I64_unop o -> unop st T_i64 T_i64 (K_i64_unop o)
  | I32_binop o -> binop st T_i32 T_i32 (K_i32_binop o)
  | I64_binop o -> binop st T_i64 T_i64 (K_i64_binop o)
  | I32_relop o -> binop st T_i32 T_i32 (K_i32_relop o)
  | I64_relop o -> binop st T_i64 T_i32 (K_i64_relop o)
  | F32_unop o -> unop st T_f32 T_f32 (K_f32_unop o)
  | F64_unop o -> unop st T_f64 T_f64 (K_f64_unop o)
  | F32_binop o -> binop st T_f32 T_f32 (K_f32_binop o)
  | F64_binop o -> binop st T_f64 T_f64 (K_f64_binop o)
  | F32_relop o -> binop st T_f32 T_i32 (K_f32_relop o)
  | F64_relop o -> binop st T_f64 T_i32 (K_f64_relop o)
  | I32_wrap_i64 -> cvt st T_i64 T_i32 C_i32_wrap_i64
  | I64_extend_i32 e -> cvt st T_i32 T_i64 (C_i64_extend_i32 e)
  | I32_trunc_f32 e -> cvt st T_f32 T_i32 (C_i32_trunc_f32 e)
  | I32_trunc_f64 e -> cvt st T_f64 T_i32 (C_i32_trunc_f64 e)
  | I64_trunc_f32 e -> cvt st T_f32 T_i64 (C_i64_trunc_f32 e)
  | I64_trunc_f64 e -> cvt st T_f64 T_i64 (C_i64_trunc_f64 e)
  | F32_convert_i32 e -> cvt st T_i32 T_f32 (C_f32_convert_i32 e)
  | F32_convert_i64 e -> cvt st T_i64 T_f32 (C_f32_convert_i64 e)
  | F64_convert_i32 e -> cvt st T_i32 T_f64 (C_f64_convert_i32 e)
  | F64_convert_i64 e -> cvt st T_i64 T_f64 (C_f64_convert_i64 e)
  | F32_demote_f64 -> cvt st T_f64 T_f32 C_f32_demote_f64
  | F64_promote_f32 -> cvt st T_f32 T_f64 C_f64_promote_f32
  | I32_reinterpret_f32 -> cvt st T_f32 T_i32 C_i32_reinterpret_f32
  | I64_reinterpret_f64 -> cvt st T_f64 T_i64 C_i64_reinterpret_f64
  | F32_reinterpret_i32 -> cvt st T_i32 T_f32 C_f32_reinterpret_i32
  | F64_reinterpret_i64 -> cvt st T_i64 T_f64 C_f64_reinterpret_i64
  | I32_extend8_s -> cvt st T_i32 T_i32 C_i32_extend8_s
  | I32_extend16_s -> cvt st T_i32 T_i32 C_i32_extend16_s
  | I64_extend8_s -> cvt st T_i64 T_i64 C_i64_extend8_s
  | I64_extend16_s -> cvt st T_i64 T_i64 C_i64_extend16_s
  | I64_extend32_s -> cvt st T_i64 T_i64 C_i64_extend32_s

and instrs st = function
  | [] -> ()
  | i :: is ->
      instr st i;
      instrs st is

and cvt st from into op = unop st from into (K_cvt op)

and if_construct st ft then_body else_body was_reachable =
  (* Layout: [br_if_false -> else] then_code [br -> end] else_code end.
     We implement "branch if false" by emitting i32.eqz + K_br_if. *)
  let to_else = { target = -1; arity = 0; drop = 0 } in
  if was_reachable then begin
    emit st K_i32_eqz;
    emit st (K_br_if to_else)
  end;
  push_ctrl st ~is_loop:false ft.params ft.results 0;
  instrs st then_body;
  (* Close the then arm manually (types), then emit skip-over-else. *)
  let c = cur st in
  if not c.cf_unreachable then pop_list st ft.results;
  truncate st c.cf_base;
  pop_ctrl st;
  let to_end = { target = -1; arity = 0; drop = 0 } in
  let skips_else = was_reachable && not c.cf_unreachable in
  if skips_else then emit st (K_br to_end);
  if was_reachable then to_else.target <- here st;
  (* Else arm. *)
  push_list st ft.params;
  push_ctrl st ~is_loop:false ft.params ft.results 0;
  instrs st else_body;
  let c2 = cur st in
  if not c2.cf_unreachable then pop_list st ft.results;
  truncate st c2.cf_base;
  pop_ctrl st;
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
  if not c.cf_unreachable then pop_list st c.cf_results;
  truncate st c.cf_base;
  pop_ctrl st;
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
  st.s_wlen <- 0;
  (* Function body is an implicit block with the function's result type. *)
  push_ctrl st ~is_loop:false [] ftype.results 0;
  if st.s_poll = Poll_funcs then emit st K_poll;
  instrs st f.f_body;
  let c = cur st in
  if not c.cf_unreachable then pop_list st ftype.results;
  if c.cf_patches <> [] then patch (here st) c.cf_patches;
  emit st K_return;
  flush st;
  { fc_name = f.f_name; fc_type = ftype;
    fc_arity = List.length ftype.results;
    fc_nparams = List.length ftype.params;
    fc_locals = locals; fc_max_height = st.s_max_height;
    fc_ops = Array.sub st.s_out 0 st.s_len }

(* ------------------------------------------------------------------ *)
(* Static call info (for the reachability analyzer)                     *)
(* ------------------------------------------------------------------ *)

(** Exact direct callee indices of a compiled function. Computed over
    the validated flat code, so calls in statically unreachable code
    (dropped by the compiler) do not appear. *)
let direct_calls (fc : fcode) : int list =
  Array.to_list fc.fc_ops
  |> List.filter_map (function K_call fi -> Some fi | _ -> None)
  |> List.sort_uniq compare

(** Type indices used by [call_indirect] in a compiled function. The
    analyzer over-approximates the target set by matching these against
    type-compatible elem-segment entries. *)
let indirect_call_types (fc : fcode) : int list =
  Array.to_list fc.fc_ops
  |> List.filter_map (function K_call_indirect (ti, _) -> Some ti | _ -> None)
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
  cm_fuse : fuse_stats; (* macro-op fusion coverage of this image *)
}

(** Validate and compile every local function of [m] in one pass over
    each body. [fuse] (default on) fuses superinstructions as the ops are
    emitted; the unfused engine is the reference that the gate's
    differential and the tests compare the fused one against.

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
      s_env = env; s_poll = poll; s_fuse = fuse; s_fname = ""; s_locals = [||];
      s_results = []; s_types = Array.make 64 T_i32; s_height = 0;
      s_max_height = 0; s_ctrls = []; s_out = Array.make 128 K_return;
      s_len = 0; s_win = Array.make 8 K_return; s_whead = 0; s_wlen = 0;
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
