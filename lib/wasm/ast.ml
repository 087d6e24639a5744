(** Structured (pre-validation) instruction AST and module grammar.

    This is the form the binary decoder produces and the builder/minic
    code generators construct; {!Code} flattens it to jump-resolved
    executable code. *)

open Types

(* Integer relational/arith operator tags shared by i32/i64. *)
type int_unop = Clz | Ctz | Popcnt
type int_binop =
  | Add | Sub | Mul | Div_s | Div_u | Rem_s | Rem_u
  | And | Or | Xor | Shl | Shr_s | Shr_u | Rotl | Rotr
type int_relop = Eq | Ne | Lt_s | Lt_u | Gt_s | Gt_u | Le_s | Le_u | Ge_s | Ge_u

type float_unop = Neg | Abs | Sqrt | Ceil | Floor | Trunc | Nearest
type float_binop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Copysign
type float_relop = Feq | Fne | Flt | Fgt | Fle | Fge

(* Load/store shapes. *)
type pack = P8 | P16 | P32
type extension = SX | ZX

type memop = { offset : int; align : int }

type block_type = Bt_none | Bt_val of val_type | Bt_type of int

type instr =
  | Unreachable
  | Nop
  | Block of block_type * instr list
  | Loop of block_type * instr list
  | If of block_type * instr list * instr list
  | Br of int
  | Br_if of int
  | Br_table of int list * int
  | Return
  | Call of int
  | Call_indirect of int * int (* type idx, table idx *)
  | Drop
  | Select
  | Local_get of int
  | Local_set of int
  | Local_tee of int
  | Global_get of int
  | Global_set of int
  (* Memory *)
  | I32_load of memop
  | I64_load of memop
  | F32_load of memop
  | F64_load of memop
  | I32_load8 of extension * memop
  | I32_load16 of extension * memop
  | I64_load8 of extension * memop
  | I64_load16 of extension * memop
  | I64_load32 of extension * memop
  | I32_store of memop
  | I64_store of memop
  | F32_store of memop
  | F64_store of memop
  | I32_store8 of memop
  | I32_store16 of memop
  | I64_store8 of memop
  | I64_store16 of memop
  | I64_store32 of memop
  | Memory_size
  | Memory_grow
  | Memory_fill
  | Memory_copy
  (* Numeric *)
  | I32_const of int32
  | I64_const of int64
  | F32_const of int32
  | F64_const of int64
  | I32_eqz
  | I64_eqz
  | I32_unop of int_unop
  | I64_unop of int_unop
  | I32_binop of int_binop
  | I64_binop of int_binop
  | I32_relop of int_relop
  | I64_relop of int_relop
  | F32_unop of float_unop
  | F64_unop of float_unop
  | F32_binop of float_binop
  | F64_binop of float_binop
  | F32_relop of float_relop
  | F64_relop of float_relop
  (* Conversions *)
  | I32_wrap_i64
  | I64_extend_i32 of extension
  | I32_trunc_f32 of extension
  | I32_trunc_f64 of extension
  | I64_trunc_f32 of extension
  | I64_trunc_f64 of extension
  | F32_convert_i32 of extension
  | F32_convert_i64 of extension
  | F64_convert_i32 of extension
  | F64_convert_i64 of extension
  | F32_demote_f64
  | F64_promote_f32
  | I32_reinterpret_f32
  | I64_reinterpret_f64
  | F32_reinterpret_i32
  | F64_reinterpret_i64
  | I32_extend8_s
  | I32_extend16_s
  | I64_extend8_s
  | I64_extend16_s
  | I64_extend32_s

type func = {
  f_type : int; (* index into types *)
  f_locals : val_type list; (* extra locals beyond params *)
  f_body : instr list;
  f_name : string; (* diagnostic name; "" if unknown *)
}

type import_desc =
  | Id_func of int (* type index *)
  | Id_table of limits
  | Id_memory of limits
  | Id_global of global_type

type import = { imp_module : string; imp_name : string; imp_desc : import_desc }

type export_desc = Ed_func of int | Ed_table of int | Ed_memory of int | Ed_global of int

type export = { exp_name : string; exp_desc : export_desc }

type global = { g_type : global_type; g_init : instr list }

type elem = { e_table : int; e_offset : instr list; e_funcs : int list }

type data = { d_mem : int; d_offset : instr list; d_bytes : string }

type module_ = {
  types : func_type array;
  imports : import list;
  funcs : func array; (* locally defined functions *)
  tables : limits array; (* locally defined tables *)
  memories : limits array; (* locally defined memories *)
  globals : global array;
  exports : export list;
  start : int option;
  elems : elem list;
  datas : data list;
  m_name : string;
}

let empty_module =
  {
    types = [||];
    imports = [];
    funcs = [||];
    tables = [||];
    memories = [||];
    globals = [||];
    exports = [];
    start = None;
    elems = [];
    datas = [];
    m_name = "";
  }

(* Index-space helpers: imports precede local definitions. *)

let imported_funcs m =
  List.filter_map
    (fun i -> match i.imp_desc with Id_func t -> Some (i, t) | _ -> None)
    m.imports

let num_imported_funcs m = List.length (imported_funcs m)

let num_imported_memories m =
  List.length
    (List.filter (fun i -> match i.imp_desc with Id_memory _ -> true | _ -> false)
       m.imports)

let num_imported_tables m =
  List.length
    (List.filter (fun i -> match i.imp_desc with Id_table _ -> true | _ -> false)
       m.imports)

(* Type of function by index across the import/local boundary. *)
let func_type_idx m idx =
  let n = num_imported_funcs m in
  if idx < n then snd (List.nth (imported_funcs m) idx)
  else m.funcs.(idx - n).f_type

(** Function exports as (export name, function index) pairs. *)
let exported_funcs m =
  List.filter_map
    (fun e -> match e.exp_desc with Ed_func i -> Some (e.exp_name, i) | _ -> None)
    m.exports

(** Every function index referenced by an element segment. Tables are
    only written at instantiation time (this Wasm subset has no
    table-mutation instructions), so this is the complete set of
    address-taken functions: the only possible [call_indirect] targets
    and the only functions the host can invoke through a table slot
    (signal handlers, thread entries). *)
let elem_func_indices m =
  List.concat_map (fun e -> e.e_funcs) m.elems |> List.sort_uniq compare

(** Diagnostic name of function [idx], crossing the import boundary. *)
let func_name m idx =
  let n = num_imported_funcs m in
  if idx < n then
    match List.nth_opt (imported_funcs m) idx with
    | Some (i, _) -> i.imp_module ^ "." ^ i.imp_name
    | None -> Printf.sprintf "#%d" idx
  else
    match m.funcs.(idx - n).f_name with
    | "" -> Printf.sprintf "#%d" idx
    | s -> s
