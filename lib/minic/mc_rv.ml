(** MiniC -> RV32IM code generator: the QEMU-baseline guest target.

    Data is laid out by {!Mc_layout}, as on the other targets, with
    code loaded at [code_base], the stack just below it and the heap
    above. Syscalls use the Linux RV convention (args a0..a5, number in
    a7, ecall) with the numbering from {!Riscv.Rv_linux}. *)

open Mc_ast
open Riscv.Rv_asm

let code_base = 0x400000
let stack_top = 0x3F0000
let heap_base = 0x500000

type rv_image = {
  rv_code : string;
  rv_code_base : int;
  rv_data : string; (* load at address 0 *)
  rv_entry : int;
  rv_sp_init : int;
  rv_heap_base : int;
}

type cctx = {
  l : Mc_layout.t;
  mutable gensym : int;
  mutable out : instr list; (* reversed *)
}

let emit ctx i = ctx.out <- i :: ctx.out

let fresh ctx prefix =
  ctx.gensym <- ctx.gensym + 1;
  Printf.sprintf ".%s%d" prefix ctx.gensym

type fctx = {
  locals : (string, int * ty) Hashtbl.t;
  mutable nlocals : int;
  ret_label : string;
  mutable loop_stack : (string * string) list; (* (continue, break) *)
}

let local_off i = -12 - (4 * i)

let ty_of ctx fc e = Mc_layout.ty_of ctx.l fc.locals e

let push_a0 ctx =
  emit ctx (Addi (sp, sp, -4));
  emit ctx (Sw (a0, 0, sp))

let pop_to ctx r =
  emit ctx (Lw (r, 0, sp));
  emit ctx (Addi (sp, sp, 4))

(* Evaluate [e] into a0. *)
let rec cexpr ctx fc (e : expr) : unit =
  match e with
  | EInt n -> emit ctx (Li (a0, n))
  | ESizeof t -> emit ctx (Li (a0, Mc_ast.size_of t))
  | EStr s -> emit ctx (Li (a0, Mc_layout.intern ctx.l s))
  | EFnptr f -> emit ctx (La (a0, f))
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) -> emit ctx (Lw (a0, local_off i, s0))
      | None ->
          let g = Mc_layout.global ctx.l n in
          if g.g_is_array then emit ctx (Li (a0, g.g_addr))
          else begin
            emit ctx (Li (t0, g.g_addr));
            emit ctx (if g.g_ty = TChar then Lbu (a0, 0, t0) else Lw (a0, 0, t0))
          end)
  | ECall (f, args) ->
      List.iter
        (fun a ->
          cexpr ctx fc a;
          push_a0 ctx)
        args;
      let n = List.length args in
      for i = n - 1 downto 0 do
        pop_to ctx (a0 + i)
      done;
      emit ctx (Call f)
  | ESyscall (name, args) ->
      List.iter
        (fun a ->
          cexpr ctx fc a;
          push_a0 ctx)
        args;
      let n = List.length args in
      for i = n - 1 downto 0 do
        pop_to ctx (a0 + i)
      done;
      (match Riscv.Rv_linux.nr_of_name name with
      | Some nr -> emit ctx (Li (a7, nr))
      | None -> error "no RV syscall number for %s" name);
      emit ctx Ecall
  | EBuiltin (("memcopy" | "memfill" | "argc" | "argv_len" | "argv_copy"
              | "envc" | "env_len" | "env_copy") as b, args) ->
      List.iter
        (fun a ->
          cexpr ctx fc a;
          push_a0 ctx)
        args;
      let n = List.length args in
      for i = n - 1 downto 0 do
        pop_to ctx (a0 + i)
      done;
      emit ctx (Li (a7, Riscv.Rv_linux.builtin_nr b));
      emit ctx Ecall
  | EBuiltin ("calli", target :: args) ->
      cexpr ctx fc target;
      push_a0 ctx;
      List.iter
        (fun a ->
          cexpr ctx fc a;
          push_a0 ctx)
        args;
      let n = List.length args in
      for i = n - 1 downto 0 do
        pop_to ctx (a0 + i)
      done;
      pop_to ctx t1;
      emit ctx (Jalr (ra, t1, 0))
  | EBuiltin (b, _) -> error "builtin %s not supported on RV32" b
  | EUnop (Neg, a) ->
      cexpr ctx fc a;
      emit ctx (Sub (a0, x0, a0))
  | EUnop (Not, a) ->
      cexpr ctx fc a;
      emit ctx (Sltu (a0, x0, a0));
      emit ctx (Xori (a0, a0, 1))
  | EUnop (Bnot, a) ->
      cexpr ctx fc a;
      emit ctx (Xori (a0, a0, -1))
  | EBinop (And, a, b) ->
      let lfalse = fresh ctx "andf" and lend = fresh ctx "ande" in
      cexpr ctx fc a;
      emit ctx (Beqz (a0, lfalse));
      cexpr ctx fc b;
      emit ctx (Sltu (a0, x0, a0));
      emit ctx (Jmp lend);
      emit ctx (Label lfalse);
      emit ctx (Li (a0, 0));
      emit ctx (Label lend)
  | EBinop (Or, a, b) ->
      let ltrue = fresh ctx "ort" and lend = fresh ctx "ore" in
      cexpr ctx fc a;
      emit ctx (Bnez (a0, ltrue));
      cexpr ctx fc b;
      emit ctx (Sltu (a0, x0, a0));
      emit ctx (Jmp lend);
      emit ctx (Label ltrue);
      emit ctx (Li (a0, 1));
      emit ctx (Label lend)
  | EBinop (op, a, b) -> cbinop ctx fc op a b
  | EAssign (l, r) -> cassign ctx fc l r
  | EIndex (p, i) ->
      let t = ty_of ctx fc e in
      caddr_index ctx fc p i;
      emit ctx (if t = TChar then Lbu (a0, 0, a0) else Lw (a0, 0, a0))
  | EDeref p ->
      let t = ty_of ctx fc e in
      cexpr ctx fc p;
      emit ctx (if t = TChar then Lbu (a0, 0, a0) else Lw (a0, 0, a0))
  | ECast (_, a) -> cexpr ctx fc a
  | ECond (c, a, b) ->
      let lelse = fresh ctx "ce" and lend = fresh ctx "cd" in
      cexpr ctx fc c;
      emit ctx (Beqz (a0, lelse));
      cexpr ctx fc a;
      emit ctx (Jmp lend);
      emit ctx (Label lelse);
      cexpr ctx fc b;
      emit ctx (Label lend)

(* leaves the effective address in a0 *)
and caddr_index ctx fc p i =
  let pt = ty_of ctx fc p in
  let sz = elem_size pt in
  cexpr ctx fc p;
  push_a0 ctx;
  cexpr ctx fc i;
  if sz <> 1 then begin
    emit ctx (Li (t0, sz));
    emit ctx (Mul (a0, a0, t0))
  end;
  pop_to ctx t0;
  emit ctx (Add (a0, t0, a0))

and cbinop ctx fc op a b =
  let ta = ty_of ctx fc a and tb = ty_of ctx fc b in
  (* pointer scaling *)
  let scale_b = match (op, ta) with (Add | Sub), TPtr t -> Mc_ast.size_of t | _ -> 1 in
  let scale_a = match (op, tb) with Add, TPtr t when ta <> TPtr t -> (match ta with TPtr _ -> 1 | _ -> Mc_ast.size_of t) | _ -> 1 in
  cexpr ctx fc a;
  if scale_a <> 1 then begin
    emit ctx (Li (t0, scale_a));
    emit ctx (Mul (a0, a0, t0))
  end;
  push_a0 ctx;
  cexpr ctx fc b;
  if scale_b <> 1 && not (op = Sub && (match tb with TPtr _ -> true | _ -> false))
  then begin
    emit ctx (Li (t0, scale_b));
    emit ctx (Mul (a0, a0, t0))
  end;
  emit ctx (Addi (a1, a0, 0));
  pop_to ctx a0;
  (match op with
  | Add -> emit ctx (Add (a0, a0, a1))
  | Sub ->
      emit ctx (Sub (a0, a0, a1));
      (match (ta, tb) with
      | TPtr t, TPtr _ when Mc_ast.size_of t <> 1 ->
          emit ctx (Li (t0, Mc_ast.size_of t));
          emit ctx (Div (a0, a0, t0))
      | _ -> ())
  | Mul -> emit ctx (Mul (a0, a0, a1))
  | Div -> emit ctx (Div (a0, a0, a1))
  | Mod -> emit ctx (Rem (a0, a0, a1))
  | Shl -> emit ctx (Sll (a0, a0, a1))
  | Shr -> emit ctx (Sra (a0, a0, a1))
  | Band -> emit ctx (And (a0, a0, a1))
  | Bor -> emit ctx (Or (a0, a0, a1))
  | Bxor -> emit ctx (Xor (a0, a0, a1))
  | Lt -> emit ctx (Slt (a0, a0, a1))
  | Gt -> emit ctx (Slt (a0, a1, a0))
  | Le ->
      emit ctx (Slt (a0, a1, a0));
      emit ctx (Xori (a0, a0, 1))
  | Ge ->
      emit ctx (Slt (a0, a0, a1));
      emit ctx (Xori (a0, a0, 1))
  | Eq ->
      emit ctx (Sub (a0, a0, a1));
      emit ctx (Sltu (a0, x0, a0));
      emit ctx (Xori (a0, a0, 1))
  | Ne ->
      emit ctx (Sub (a0, a0, a1));
      emit ctx (Sltu (a0, x0, a0))
  | And | Or -> assert false)

and cassign ctx fc lhs rhs =
  match lhs with
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) ->
          cexpr ctx fc rhs;
          emit ctx (Sw (a0, local_off i, s0))
      | None ->
          let g = Mc_layout.global ctx.l n in
          if g.g_is_array then error "cannot assign to array %s" n;
          cexpr ctx fc rhs;
          emit ctx (Li (t0, g.g_addr));
          emit ctx (if g.g_ty = TChar then Sb (a0, 0, t0) else Sw (a0, 0, t0)))
  | EIndex (p, i) ->
      let t = ty_of ctx fc lhs in
      caddr_index ctx fc p i;
      push_a0 ctx;
      cexpr ctx fc rhs;
      pop_to ctx t0;
      emit ctx (if t = TChar then Sb (a0, 0, t0) else Sw (a0, 0, t0))
  | EDeref p ->
      let t = ty_of ctx fc lhs in
      cexpr ctx fc p;
      push_a0 ctx;
      cexpr ctx fc rhs;
      pop_to ctx t0;
      emit ctx (if t = TChar then Sb (a0, 0, t0) else Sw (a0, 0, t0))
  | _ -> error "not an lvalue"

let rec cstmt ctx fc (s : stmt) : unit =
  match s with
  | SExpr e -> cexpr ctx fc e
  | SDecl (t, n, init) ->
      let idx = fc.nlocals in
      fc.nlocals <- fc.nlocals + 1;
      Hashtbl.replace fc.locals n (idx, t);
      (match init with
      | Some e ->
          cexpr ctx fc e;
          emit ctx (Sw (a0, local_off idx, s0))
      | None -> ())
  | SIf (c, t, e) ->
      let lelse = fresh ctx "ie" and lend = fresh ctx "id" in
      cexpr ctx fc c;
      emit ctx (Beqz (a0, lelse));
      List.iter (cstmt ctx fc) t;
      emit ctx (Jmp lend);
      emit ctx (Label lelse);
      List.iter (cstmt ctx fc) e;
      emit ctx (Label lend)
  | SWhile (c, body) ->
      let head = fresh ctx "wh" and lend = fresh ctx "we" in
      emit ctx (Label head);
      cexpr ctx fc c;
      emit ctx (Beqz (a0, lend));
      fc.loop_stack <- (head, lend) :: fc.loop_stack;
      List.iter (cstmt ctx fc) body;
      fc.loop_stack <- List.tl fc.loop_stack;
      emit ctx (Jmp head);
      emit ctx (Label lend)
  | SFor (init, cond, step, body) ->
      Option.iter (cstmt ctx fc) init;
      let head = fresh ctx "fh" and lcont = fresh ctx "fc" and lend = fresh ctx "fe" in
      emit ctx (Label head);
      (match cond with
      | Some c ->
          cexpr ctx fc c;
          emit ctx (Beqz (a0, lend))
      | None -> ());
      fc.loop_stack <- (lcont, lend) :: fc.loop_stack;
      List.iter (cstmt ctx fc) body;
      fc.loop_stack <- List.tl fc.loop_stack;
      emit ctx (Label lcont);
      Option.iter (cexpr ctx fc) step;
      emit ctx (Jmp head);
      emit ctx (Label lend)
  | SReturn None ->
      emit ctx (Li (a0, 0));
      emit ctx (Jmp fc.ret_label)
  | SReturn (Some e) ->
      cexpr ctx fc e;
      emit ctx (Jmp fc.ret_label)
  | SBreak -> (
      match fc.loop_stack with
      | (_, brk) :: _ -> emit ctx (Jmp brk)
      | [] -> error "break outside loop")
  | SContinue -> (
      match fc.loop_stack with
      | (cont, _) :: _ -> emit ctx (Jmp cont)
      | [] -> error "continue outside loop")
  | SBlock b -> List.iter (cstmt ctx fc) b

(* Count locals (params + decls) to size the frame up front. *)
let rec count_decls (b : stmt list) : int =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | SDecl _ -> 1
      | SIf (_, t, e) -> count_decls t + count_decls e
      | SWhile (_, b) -> count_decls b
      | SFor (i, _, _, b) ->
          count_decls b + (match i with Some (SDecl _) -> 1 | _ -> 0)
      | SBlock b -> count_decls b
      | _ -> 0)
    0 b

let cfunc ctx (f : func) : unit =
  let nparams = List.length f.fn_params in
  let nlocals = nparams + count_decls f.fn_body in
  let frame = (12 + (4 * nlocals) + 15) land lnot 15 in
  let fc =
    {
      locals = Hashtbl.create 16;
      nlocals = nparams;
      ret_label = "." ^ f.fn_name ^ "$ret";
      loop_stack = [];
    }
  in
  List.iteri (fun i (t, n) -> Hashtbl.replace fc.locals n (i, t)) f.fn_params;
  emit ctx (Label f.fn_name);
  emit ctx (Addi (sp, sp, -frame));
  emit ctx (Sw (ra, frame - 4, sp));
  emit ctx (Sw (s0, frame - 8, sp));
  emit ctx (Addi (s0, sp, frame));
  (* spill incoming arguments into their local slots *)
  List.iteri (fun i _ -> emit ctx (Sw (a0 + i, local_off i, s0))) f.fn_params;
  List.iter (cstmt ctx fc) f.fn_body;
  emit ctx (Li (a0, 0)); (* fallthrough return value *)
  emit ctx (Label fc.ret_label);
  emit ctx (Lw (ra, -4, s0));
  emit ctx (Addi (sp, s0, 0));
  emit ctx (Lw (s0, -8, s0));
  emit ctx Ret

let compile (p : program) : rv_image =
  let l = Mc_layout.create p in
  let ctx = { l; gensym = 0; out = [] } in
  let funcs = List.filter_map (function GFunc f -> Some f | _ -> None) p in
  (* entry shim *)
  let has_rt_init = Hashtbl.mem l.env.Mc_check.funcs "__rt_init" in
  let main_params =
    match Hashtbl.find_opt l.env.Mc_check.funcs "main" with
    | Some s -> List.length s.Mc_check.fs_params
    | None -> error "RV target requires a main function"
  in
  emit ctx (Label "_start");
  if has_rt_init then emit ctx (Call "__rt_init");
  (if main_params > 0 then begin
     match (Hashtbl.find_opt l.globals "__argc", Hashtbl.find_opt l.globals "__argv") with
     | Some ac, Some av ->
         emit ctx (Li (t0, ac.g_addr));
         emit ctx (Lw (a0, 0, t0));
         emit ctx (Li (t0, av.g_addr));
         emit ctx (Lw (a1, 0, t0))
     | _ -> error "main(argc, argv) requires the libc"
   end);
  emit ctx (Call "main");
  (match Riscv.Rv_linux.nr_of_name "exit_group" with
  | Some nr -> emit ctx (Li (a7, nr))
  | None -> assert false);
  emit ctx Ecall;
  List.iter (cfunc ctx) funcs;
  let code, labels = Riscv.Rv_asm.assemble ~base:code_base (List.rev ctx.out) in
  {
    rv_code = code;
    rv_code_base = code_base;
    rv_data = Mc_layout.image l;
    rv_entry = Hashtbl.find labels "_start";
    rv_sp_init = stack_top;
    rv_heap_base = heap_base;
  }
