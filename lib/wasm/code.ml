(** Validation + flattening of structured instructions into executable
    flat code with resolved jump targets.

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
  | K_const of Values.value
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
  (* Superinstructions produced by the [fuse] pass: each stands for the
     short op sequence named by its constructor and gets a dedicated
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
(* Validator state                                                      *)
(* ------------------------------------------------------------------ *)

(* A control frame. [cf_height] is the absolute value-stack height just
   after the frame's parameters were (conceptually) re-pushed at entry. *)
type ctrl = {
  cf_is_loop : bool;
  cf_params : val_type list;
  cf_results : val_type list;
  cf_height : int; (* stack height at entry, including params *)
  mutable cf_unreachable : bool;
  (* Forward-branch jumps to patch once the frame ends. Loops need no
     patching: their target is known at entry. *)
  mutable cf_patches : jump list;
  cf_target_if_loop : int; (* pc of loop header *)
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

let compile_func env ~poll (f : func) : fcode =
  let ftype = env.e_module.types.(f.f_type) in
  let locals = Array.of_list (ftype.params @ f.f_locals) in
  let nlocals = Array.length locals in
  (* Emission buffer. *)
  let buf = ref (Array.make 64 K_return) in
  let len = ref 0 in
  let emit op =
    if !len = Array.length !buf then begin
      let b = Array.make (2 * !len) K_return in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- op;
    incr len
  in
  (* Value stack of types; Unknown height handling via frame.unreachable. *)
  let vstack = ref [] in
  let vheight = ref 0 in
  let max_height = ref 0 in
  let ctrls : ctrl list ref = ref [] in
  let cur_ctrl () =
    match !ctrls with [] -> invalid "control stack underflow" | c :: _ -> c
  in
  let push_v t =
    vstack := t :: !vstack;
    incr vheight;
    if !vheight > !max_height then max_height := !vheight
  in
  (* Pops are polymorphic once the current frame is unreachable and the
     stack has been drained to the frame base. *)
  let pop_any () =
    let c = cur_ctrl () in
    if !vheight <= c.cf_height - List.length c.cf_params then
      if c.cf_unreachable then None (* polymorphic *)
      else invalid "%s: value stack underflow" f.f_name
    else
      match !vstack with
      | t :: rest ->
          vstack := rest;
          decr vheight;
          Some t
      | [] -> invalid "%s: value stack underflow" f.f_name
  in
  let pop_expect t =
    match pop_any () with
    | None -> ()
    | Some t' when t' = t -> ()
    | Some t' ->
        invalid "%s: type mismatch, expected %s got %s" f.f_name
          (string_of_val_type t) (string_of_val_type t')
  in
  let pop_list ts = List.iter pop_expect (List.rev ts) in
  let push_list ts = List.iter push_v ts in
  let push_ctrl ~is_loop bt target =
    let c =
      {
        cf_is_loop = is_loop;
        cf_params = bt.params;
        cf_results = bt.results;
        cf_height = !vheight;
        cf_unreachable = false;
        cf_patches = [];
        cf_target_if_loop = target;
      }
    in
    ctrls := c :: !ctrls
  in
  (* Reset the stack to a frame's base: discards what an arm left
     behind, which only unreachable code can do. *)
  let truncate base =
    while !vheight > base do
      vstack := List.tl !vstack;
      decr vheight
    done
  in
  let mark_unreachable () =
    let c = cur_ctrl () in
    (* Reset stack to frame base; subsequent pops are polymorphic. *)
    let base = c.cf_height - List.length c.cf_params in
    while !vheight > base do
      ignore (pop_any ())
    done;
    c.cf_unreachable <- true
  in
  let label_of idx =
    let rec nth n = function
      | [] -> invalid "%s: branch depth %d out of range" f.f_name idx
      | c :: rest -> if n = 0 then c else nth (n - 1) rest
    in
    nth idx !ctrls
  in
  (* Branch payload types for label l. *)
  let label_types c = if c.cf_is_loop then c.cf_params else c.cf_results in
  (* Build a jump record for a branch to control frame [c] taken when the
     value stack currently holds [h] values (after popping any condition). *)
  let make_jump c h =
    let arity = List.length (label_types c) in
    let dest_height =
      if c.cf_is_loop then c.cf_height
      else c.cf_height - List.length c.cf_params + List.length c.cf_results
    in
    let drop = h - dest_height in
    let drop = if drop < 0 then 0 (* unreachable code only *) else drop in
    let j =
      {
        target = (if c.cf_is_loop then c.cf_target_if_loop else -1);
        arity;
        drop;
      }
    in
    if not c.cf_is_loop then c.cf_patches <- j :: c.cf_patches;
    j
  in
  let reachable () = not (cur_ctrl ()).cf_unreachable in
  let check_local i =
    if i < 0 || i >= nlocals then invalid "%s: local %d out of range" f.f_name i
  in
  let check_global i =
    if i < 0 || i >= Array.length env.e_global_types then
      invalid "%s: global %d out of range" f.f_name i
  in
  let check_mem () =
    if env.e_num_memories = 0 then invalid "%s: no memory" f.f_name
  in
  let local_type i = locals.(i) in
  let emit_r op = if reachable () then emit op in
  let do_load kind t off =
    check_mem ();
    pop_expect T_i32;
    push_v t;
    emit_r (K_load (kind, off))
  in
  let do_store kind t off =
    check_mem ();
    pop_expect t;
    pop_expect T_i32;
    emit_r (K_store (kind, off))
  in
  let rec instr (i : instr) =
    (if poll = Poll_every && reachable () then emit K_poll);
    match i with
    | Nop -> ()
    | Unreachable ->
        emit_r K_unreachable;
        mark_unreachable ()
    | Block (bt, body) ->
        let ft = resolve_block_type env bt in
        pop_list ft.params;
        push_list ft.params;
        push_ctrl ~is_loop:false ft 0;
        List.iter instr body;
        end_frame ()
    | Loop (bt, body) ->
        let ft = resolve_block_type env bt in
        pop_list ft.params;
        push_list ft.params;
        push_ctrl ~is_loop:true ft !len;
        if poll = Poll_loops then emit K_poll;
        List.iter instr body;
        end_frame ()
    | If (bt, then_body, else_body) ->
        let ft = resolve_block_type env bt in
        pop_expect T_i32;
        pop_list ft.params;
        push_list ft.params;
        if_construct ft then_body else_body (reachable ())
    | Br idx ->
        let c = label_of idx in
        pop_list (label_types c);
        (if reachable () then
           let j = make_jump c (!vheight + List.length (label_types c)) in
           emit (K_br j));
        mark_unreachable ()
    | Br_if idx ->
        pop_expect T_i32;
        let c = label_of idx in
        pop_list (label_types c);
        push_list (label_types c);
        if reachable () then begin
          let j = make_jump c !vheight in
          emit (K_br_if j)
        end
    | Br_table (idxs, default) ->
        pop_expect T_i32;
        let cd = label_of default in
        let ts = label_types cd in
        List.iter
          (fun i ->
            let c = label_of i in
            if List.length (label_types c) <> List.length ts then
              invalid "%s: br_table arity mismatch" f.f_name)
          idxs;
        pop_list ts;
        (if reachable () then begin
           let h = !vheight + List.length ts in
           let jumps =
             Array.of_list (List.map (fun i -> make_jump (label_of i) h) idxs)
           in
           let dj = make_jump cd h in
           emit (K_br_table (jumps, dj))
         end);
        mark_unreachable ()
    | Return ->
        pop_list ftype.results;
        emit_r K_return;
        mark_unreachable ()
    | Call fi ->
        if fi < 0 || fi >= Array.length env.e_func_types then
          invalid "%s: call index %d out of range" f.f_name fi;
        let ft = env.e_func_types.(fi) in
        pop_list ft.params;
        push_list ft.results;
        emit_r (K_call fi)
    | Call_indirect (ti, tbl) ->
        if ti < 0 || ti >= Array.length env.e_module.types then
          invalid "%s: call_indirect type %d out of range" f.f_name ti;
        if tbl < 0 || tbl >= env.e_num_tables then
          invalid "%s: table %d out of range" f.f_name tbl;
        let ft = env.e_module.types.(ti) in
        pop_expect T_i32;
        pop_list ft.params;
        push_list ft.results;
        emit_r (K_call_indirect (ti, tbl))
    | Drop ->
        ignore (pop_any ());
        emit_r K_drop
    | Select -> (
        pop_expect T_i32;
        let t1 = pop_any () in
        let t2 = pop_any () in
        (match (t1, t2) with
        | Some a, Some b when a <> b ->
            invalid "%s: select operand mismatch" f.f_name
        | _ -> ());
        (match (t1, t2) with
        | Some a, _ -> push_v a
        | None, Some b -> push_v b
        | None, None -> push_v T_i32 (* unreachable; arbitrary *));
        emit_r K_select)
    | Local_get i ->
        check_local i;
        push_v (local_type i);
        emit_r (K_local_get i)
    | Local_set i ->
        check_local i;
        pop_expect (local_type i);
        emit_r (K_local_set i)
    | Local_tee i ->
        check_local i;
        pop_expect (local_type i);
        push_v (local_type i);
        emit_r (K_local_tee i)
    | Global_get i ->
        check_global i;
        push_v env.e_global_types.(i).gt_type;
        emit_r (K_global_get i)
    | Global_set i ->
        check_global i;
        if env.e_global_types.(i).gt_mut = Immutable then
          invalid "%s: global %d is immutable" f.f_name i;
        pop_expect env.e_global_types.(i).gt_type;
        emit_r (K_global_set i)
    | I32_load m -> do_load L_i32 T_i32 m.offset
    | I64_load m -> do_load L_i64 T_i64 m.offset
    | F32_load m -> do_load L_f32 T_f32 m.offset
    | F64_load m -> do_load L_f64 T_f64 m.offset
    | I32_load8 (e, m) -> do_load (L_i32_8 e) T_i32 m.offset
    | I32_load16 (e, m) -> do_load (L_i32_16 e) T_i32 m.offset
    | I64_load8 (e, m) -> do_load (L_i64_8 e) T_i64 m.offset
    | I64_load16 (e, m) -> do_load (L_i64_16 e) T_i64 m.offset
    | I64_load32 (e, m) -> do_load (L_i64_32 e) T_i64 m.offset
    | I32_store m -> do_store S_i32 T_i32 m.offset
    | I64_store m -> do_store S_i64 T_i64 m.offset
    | F32_store m -> do_store S_f32 T_f32 m.offset
    | F64_store m -> do_store S_f64 T_f64 m.offset
    | I32_store8 m -> do_store S_i32_8 T_i32 m.offset
    | I32_store16 m -> do_store S_i32_16 T_i32 m.offset
    | I64_store8 m -> do_store S_i64_8 T_i64 m.offset
    | I64_store16 m -> do_store S_i64_16 T_i64 m.offset
    | I64_store32 m -> do_store S_i64_32 T_i64 m.offset
    | Memory_size ->
        check_mem ();
        push_v T_i32;
        emit_r K_memory_size
    | Memory_grow ->
        check_mem ();
        pop_expect T_i32;
        push_v T_i32;
        emit_r K_memory_grow
    | Memory_fill ->
        check_mem ();
        pop_expect T_i32;
        pop_expect T_i32;
        pop_expect T_i32;
        emit_r K_memory_fill
    | Memory_copy ->
        check_mem ();
        pop_expect T_i32;
        pop_expect T_i32;
        pop_expect T_i32;
        emit_r K_memory_copy
    | I32_const v ->
        push_v T_i32;
        emit_r (K_const (Values.I32 v))
    | I64_const v ->
        push_v T_i64;
        emit_r (K_const (Values.I64 v))
    | F32_const v ->
        push_v T_f32;
        emit_r (K_const (Values.F32 v))
    | F64_const v ->
        push_v T_f64;
        emit_r (K_const (Values.F64 v))
    | I32_eqz ->
        pop_expect T_i32;
        push_v T_i32;
        emit_r K_i32_eqz
    | I64_eqz ->
        pop_expect T_i64;
        push_v T_i32;
        emit_r K_i64_eqz
    | I32_unop o ->
        pop_expect T_i32;
        push_v T_i32;
        emit_r (K_i32_unop o)
    | I64_unop o ->
        pop_expect T_i64;
        push_v T_i64;
        emit_r (K_i64_unop o)
    | I32_binop o ->
        pop_expect T_i32;
        pop_expect T_i32;
        push_v T_i32;
        emit_r (K_i32_binop o)
    | I64_binop o ->
        pop_expect T_i64;
        pop_expect T_i64;
        push_v T_i64;
        emit_r (K_i64_binop o)
    | I32_relop o ->
        pop_expect T_i32;
        pop_expect T_i32;
        push_v T_i32;
        emit_r (K_i32_relop o)
    | I64_relop o ->
        pop_expect T_i64;
        pop_expect T_i64;
        push_v T_i32;
        emit_r (K_i64_relop o)
    | F32_unop o ->
        pop_expect T_f32;
        push_v T_f32;
        emit_r (K_f32_unop o)
    | F64_unop o ->
        pop_expect T_f64;
        push_v T_f64;
        emit_r (K_f64_unop o)
    | F32_binop o ->
        pop_expect T_f32;
        pop_expect T_f32;
        push_v T_f32;
        emit_r (K_f32_binop o)
    | F64_binop o ->
        pop_expect T_f64;
        pop_expect T_f64;
        push_v T_f64;
        emit_r (K_f64_binop o)
    | F32_relop o ->
        pop_expect T_f32;
        pop_expect T_f32;
        push_v T_i32;
        emit_r (K_f32_relop o)
    | F64_relop o ->
        pop_expect T_f64;
        pop_expect T_f64;
        push_v T_i32;
        emit_r (K_f64_relop o)
    | I32_wrap_i64 -> cvt T_i64 T_i32 C_i32_wrap_i64
    | I64_extend_i32 e -> cvt T_i32 T_i64 (C_i64_extend_i32 e)
    | I32_trunc_f32 e -> cvt T_f32 T_i32 (C_i32_trunc_f32 e)
    | I32_trunc_f64 e -> cvt T_f64 T_i32 (C_i32_trunc_f64 e)
    | I64_trunc_f32 e -> cvt T_f32 T_i64 (C_i64_trunc_f32 e)
    | I64_trunc_f64 e -> cvt T_f64 T_i64 (C_i64_trunc_f64 e)
    | F32_convert_i32 e -> cvt T_i32 T_f32 (C_f32_convert_i32 e)
    | F32_convert_i64 e -> cvt T_i64 T_f32 (C_f32_convert_i64 e)
    | F64_convert_i32 e -> cvt T_i32 T_f64 (C_f64_convert_i32 e)
    | F64_convert_i64 e -> cvt T_i64 T_f64 (C_f64_convert_i64 e)
    | F32_demote_f64 -> cvt T_f64 T_f32 C_f32_demote_f64
    | F64_promote_f32 -> cvt T_f32 T_f64 C_f64_promote_f32
    | I32_reinterpret_f32 -> cvt T_f32 T_i32 C_i32_reinterpret_f32
    | I64_reinterpret_f64 -> cvt T_f64 T_i64 C_i64_reinterpret_f64
    | F32_reinterpret_i32 -> cvt T_i32 T_f32 C_f32_reinterpret_i32
    | F64_reinterpret_i64 -> cvt T_i64 T_f64 C_f64_reinterpret_i64
    | I32_extend8_s -> cvt T_i32 T_i32 C_i32_extend8_s
    | I32_extend16_s -> cvt T_i32 T_i32 C_i32_extend16_s
    | I64_extend8_s -> cvt T_i64 T_i64 C_i64_extend8_s
    | I64_extend16_s -> cvt T_i64 T_i64 C_i64_extend16_s
    | I64_extend32_s -> cvt T_i64 T_i64 C_i64_extend32_s
  and cvt from into op =
    pop_expect from;
    push_v into;
    emit_r (K_cvt op)
  and if_construct ft then_body else_body was_reachable =
    (* Layout: [br_if_false -> else] then_code [br -> end] else_code end.
       We implement "branch if false" by emitting i32.eqz + K_br_if. *)
    let to_else = { target = -1; arity = 0; drop = 0 } in
    if was_reachable then begin
      emit K_i32_eqz;
      emit (K_br_if to_else)
    end;
    push_ctrl ~is_loop:false ft 0;
    List.iter instr then_body;
    (* Close the then arm manually (types), then emit skip-over-else. *)
    let c = cur_ctrl () in
    if not c.cf_unreachable then pop_list ft.results;
    truncate (c.cf_height - List.length ft.params);
    ctrls := List.tl !ctrls;
    let to_end = { target = -1; arity = 0; drop = 0 } in
    let then_was_reachable = not c.cf_unreachable in
    if then_was_reachable && was_reachable then emit (K_br to_end);
    if was_reachable then to_else.target <- !len;
    (* Else arm. *)
    push_list ft.params;
    push_ctrl ~is_loop:false ft 0;
    List.iter instr else_body;
    let c2 = cur_ctrl () in
    if not c2.cf_unreachable then pop_list ft.results;
    truncate (c2.cf_height - List.length ft.params);
    (* Patch branches recorded against either arm's frame to the join. *)
    ctrls := List.tl !ctrls;
    let join = !len in
    List.iter (fun j -> j.target <- join) c.cf_patches;
    List.iter (fun j -> j.target <- join) c2.cf_patches;
    if then_was_reachable && was_reachable then to_end.target <- join;
    (* Push results onto the enclosing frame. *)
    push_list ft.results
  and end_frame () =
    let c = cur_ctrl () in
    if not c.cf_unreachable then pop_list c.cf_results;
    truncate (c.cf_height - List.length c.cf_params);
    ctrls := List.tl !ctrls;
    List.iter (fun j -> j.target <- !len) c.cf_patches;
    push_list c.cf_results
  in
  (* Function body is an implicit block with the function's result type. *)
  push_ctrl ~is_loop:false { params = []; results = ftype.results } 0;
  if poll = Poll_funcs then emit K_poll;
  List.iter instr f.f_body;
  let c = cur_ctrl () in
  if not c.cf_unreachable then pop_list ftype.results;
  ctrls := [];
  List.iter (fun j -> j.target <- !len) c.cf_patches;
  emit K_return;
  { fc_name = f.f_name; fc_type = ftype;
    fc_arity = List.length ftype.results;
    fc_nparams = List.length ftype.params;
    fc_locals = locals; fc_max_height = !max_height;
    fc_ops = Array.sub !buf 0 !len }

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
  | F_set_get _ | F_i32_eqz_eqz -> 2
  | _ -> 1

type fuse_stats = {
  fs_ops_before : int; (* flat ops over all functions, pre-fusion *)
  fs_ops_after : int;
  fs_sites : int; (* superinstructions emitted *)
}

(** Rewrite [fc]'s ops, greedily replacing the hot idioms with
    superinstructions (longest match first). A window is fusable only if
    no *interior* pc is a branch target — the window head may be one —
    and every jump target is then remapped through the old-pc -> new-pc
    map (each [jump] record is referenced by exactly one op, so in-place
    remapping visits each record once). Loop-header [K_poll] safepoints
    never match a pattern, so fusion cannot move or elide a poll. *)
(* A window only fuses when every trap-capable op is the window's *last*
   op: the handler charges the full width to [steps] before executing, so
   a trap from an interior op would report a different instruction count
   than the unfused engine. Integer div/rem are the only trapping binops. *)
let nontrap_binop = function
  | Ast.Div_s | Ast.Div_u | Ast.Rem_s | Ast.Rem_u -> false
  | _ -> true

(* Apply [f] to every jump record of an op. *)
let iter_jumps f = function
  | K_br j | K_br_if j
  | F_i32_eqz_br_if j
  | F_i32_relop_eqz_br_if (_, j)
  | F_ll_i32_relop_eqz_br_if (_, _, _, j)
  | F_lc_i32_relop_eqz_br_if (_, _, _, j) ->
      f j
  | K_br_table (js, dj) ->
      Array.iter f js;
      f dj
  | _ -> ()

let fuse_func (fc : fcode) : fcode =
  let ops = fc.fc_ops in
  let n = Array.length ops in
  let is_target = Array.make (n + 1) false in
  let mark (j : jump) =
    if j.target >= 0 && j.target <= n then is_target.(j.target) <- true
  in
  Array.iter (iter_jumps mark) ops;
  let out = Array.make (max n 1) K_return in
  let olen = ref 0 in
  let new_pc = Array.make (n + 1) 0 in
  (* [lim] ends the window at [i]: the first pc that is past the code,
     5 ops on, or an interior branch target. Ops from there on read as
     [K_unreachable], which no pattern contains, so one match on the
     window, longest patterns first, picks the superinstruction. *)
  let lim = ref 0 in
  let op k = if k < !lim then ops.(k) else K_unreachable in
  let superop i =
    lim := i + 1;
    while !lim < n && !lim < i + 5 && not is_target.(!lim) do
      incr lim
    done;
    match (ops.(i), op (i + 1), op (i + 2), op (i + 3), op (i + 4)) with
    | K_local_get a, K_local_get b, K_i32_relop o, K_i32_eqz, K_br_if j ->
        F_ll_i32_relop_eqz_br_if (a, b, o, j)
    | K_local_get a, K_const (Values.I32 c), K_i32_relop o, K_i32_eqz, K_br_if j
      ->
        F_lc_i32_relop_eqz_br_if (a, Int32.to_int c, o, j)
    | K_local_get a, K_const (Values.I32 c), K_i32_binop o, K_local_set d, _
      when nontrap_binop o ->
        F_lc_i32_binop_set (a, Int32.to_int c, o, d)
    | K_local_get a, K_local_get b, K_i32_binop o, _, _ -> F_ll_i32_binop (a, b, o)
    | K_local_get a, K_const (Values.I32 c), K_i32_binop o, _, _ ->
        F_lc_i32_binop (a, Int32.to_int c, o)
    | K_i32_relop o, K_i32_eqz, K_br_if j, _, _ -> F_i32_relop_eqz_br_if (o, j)
    | K_local_get a, K_i32_binop o, _, _, _ -> F_l_i32_binop (a, o)
    | K_local_get a, K_store (k, off), _, _, _ -> F_l_store (a, k, off)
    | K_const (Values.I32 c), K_i32_binop o, _, _, _ ->
        F_const_i32_binop (Int32.to_int c, o)
    | K_i32_binop o, K_local_set d, _, _, _ when nontrap_binop o ->
        F_i32_binop_set (o, d)
    | K_i32_binop o, K_load (k, off), _, _, _ when nontrap_binop o ->
        F_i32_binop_load (o, k, off)
    | K_i32_binop o, K_store (k, off), _, _, _ when nontrap_binop o ->
        F_i32_binop_store (o, k, off)
    | K_i32_eqz, K_br_if j, _, _, _ -> F_i32_eqz_br_if j
    | K_i32_eqz, K_i32_eqz, _, _, _ -> F_i32_eqz_eqz
    | K_local_set s, K_local_get g, _, _, _ when s = g -> F_set_get s
    | o, _, _, _, _ -> o
  in
  let i = ref 0 in
  while !i < n do
    let s = superop !i in
    let w = op_width s in
    for k = !i to !i + w - 1 do
      new_pc.(k) <- !olen
    done;
    out.(!olen) <- s;
    incr olen;
    i := !i + w
  done;
  new_pc.(n) <- !olen;
  let fused = Array.sub out 0 !olen in
  Array.iter (iter_jumps (fun j -> j.target <- new_pc.(j.target))) fused;
  { fc with fc_ops = fused }

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

(** Validate and compile every local function of [m]. [fuse] (default on)
    runs the macro-op fusion pass over the validated flat code; the
    unfused engine is the reference that the gate's differential and the
    tests compare the fused one against. *)
let compile_module ?(poll = Poll_none) ?(fuse = true) (m : module_) : compiled =
  let env = build_env m in
  (* Validate exports refer to existing indices. *)
  List.iter
    (fun e ->
      let check n lim what =
        if n < 0 || n >= lim then invalid "export %s: %s out of range" e.exp_name what
      in
      match e.exp_desc with
      | Ed_func i -> check i (Array.length env.e_func_types) "function"
      | Ed_global i -> check i (Array.length env.e_global_types) "global"
      | Ed_memory i -> check i env.e_num_memories "memory"
      | Ed_table i -> check i env.e_num_tables "table")
    m.exports;
  let funcs = Array.map (compile_func env ~poll) m.funcs in
  let count f fcs = Array.fold_left (fun a fc -> a + f fc.fc_ops) 0 fcs in
  let superops ops =
    Array.fold_left (fun a op -> if op_width op > 1 then a + 1 else a) 0 ops
  in
  let before = count Array.length funcs in
  let funcs = if fuse then Array.map fuse_func funcs else funcs in
  let fs =
    {
      fs_ops_before = before;
      fs_ops_after = count Array.length funcs;
      fs_sites = count superops funcs;
    }
  in
  { cm_module = m; cm_env = env; cm_funcs = funcs; cm_fuse = fs }
