(** Module instantiation and import resolution. *)

open Types
open Values
open Ast
open Rt

exception Link_error of string

let link_error fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

type resolver = module_name:string -> name:string -> extern option
(** How imports are satisfied. WALI's registry provides the ["wali"]
    namespace; layered modules (e.g. the WASI adapter) provide others. *)

let empty_resolver : resolver = fun ~module_name:_ ~name:_ -> None

(** Combine resolvers; the first hit wins. *)
let ( <+> ) (a : resolver) (b : resolver) : resolver =
 fun ~module_name ~name ->
  match a ~module_name ~name with
  | Some _ as r -> r
  | None -> b ~module_name ~name

let of_instance (inst : instance) : resolver =
 fun ~module_name ~name ->
  if module_name = inst.i_name then Hashtbl.find_opt inst.i_exports name
  else None

(* Evaluate a constant initializer expression. *)
let eval_const (globals : Global.t array) (instrs : instr list) : value =
  match instrs with
  | [ I32_const v ] -> I32 v
  | [ I64_const v ] -> I64 v
  | [ F32_const v ] -> F32 v
  | [ F64_const v ] -> F64 v
  | [ Global_get i ] ->
      if i < 0 || i >= Array.length globals then
        link_error "const expr: global %d out of range" i
      else Global.get globals.(i)
  | _ -> link_error "unsupported constant expression"

(* The most initial elements a module's own table may ask for; a larger
   one is refused before it is allocated. (Validation already bounds a
   memory at 65536 pages.) *)
let table_limit = 1 lsl 24

(** Instantiate a compiled module. Does not run the start function; the
    returned [start] must be invoked by the caller (via {!Interp.invoke})
    so that instantiation itself never executes guest code. *)
let instantiate ?(name = "") (resolver : resolver) (cm : Code.compiled) :
    instance * func_inst option =
  let m = cm.Code.cm_module in
  let name = if name = "" then m.m_name else name in
  let imported_funcs = ref [] in
  let imported_mems = ref [] in
  let imported_tables = ref [] in
  let imported_globals = ref [] in
  List.iter
    (fun imp ->
      let ext =
        match resolver ~module_name:imp.imp_module ~name:imp.imp_name with
        | Some e -> e
        | None ->
            link_error "unresolved import %s.%s" imp.imp_module imp.imp_name
      in
      match (imp.imp_desc, ext) with
      | Id_func ti, E_func f ->
          let expect = m.types.(ti) in
          if not (func_type_equal (func_type_of f) expect) then
            link_error "import %s.%s: type mismatch (want %s, got %s)"
              imp.imp_module imp.imp_name
              (string_of_func_type expect)
              (string_of_func_type (func_type_of f));
          imported_funcs := f :: !imported_funcs
      | Id_memory lim, E_memory mem ->
          if Memory.size_pages mem < lim.lim_min then
            link_error "import %s.%s: memory too small" imp.imp_module imp.imp_name;
          imported_mems := mem :: !imported_mems
      | Id_table lim, E_table t ->
          if Table.size t < lim.lim_min then
            link_error "import %s.%s: table too small" imp.imp_module imp.imp_name;
          imported_tables := t :: !imported_tables
      | Id_global _, E_global g -> imported_globals := g :: !imported_globals
      | _ ->
          link_error "import %s.%s: kind mismatch" imp.imp_module imp.imp_name)
    m.imports;
  let imported_funcs = List.rev !imported_funcs in
  let imported_mems = List.rev !imported_mems in
  let imported_tables = List.rev !imported_tables in
  let imported_globals = List.rev !imported_globals in
  let local_mems =
    Array.map
      (fun lim ->
        Memory.create ~min_pages:lim.lim_min
          ~max_pages:(Option.value lim.lim_max ~default:65536))
      m.memories
  in
  let local_tables =
    Array.map
      (fun lim ->
        if lim.lim_min > table_limit then
          link_error "table of %d elements exceeds the limit of %d" lim.lim_min table_limit;
        Table.create ~min:lim.lim_min ~max:lim.lim_max)
      m.tables
  in
  let globals_so_far = Array.of_list imported_globals in
  let local_globals =
    Array.map
      (fun g ->
        Global.create g.g_type.gt_mut (eval_const globals_so_far g.g_init))
      m.globals
  in
  let inst =
    {
      i_name = name;
      i_types = m.types;
      i_funcs = [||];
      i_memories = Array.append (Array.of_list imported_mems) local_mems;
      i_tables = Array.append (Array.of_list imported_tables) local_tables;
      i_globals = Array.append globals_so_far local_globals;
      i_exports = Hashtbl.create 16;
      i_codes = cm.Code.cm_funcs;
    }
  in
  let local_funcs =
    Array.map (fun code -> Wasm_func { wf_inst = inst; wf_code = code }) cm.Code.cm_funcs
  in
  inst.i_funcs <- Array.append (Array.of_list imported_funcs) local_funcs;
  (* Element segments. *)
  List.iter
    (fun e ->
      let off = Int32.to_int (as_i32 (eval_const inst.i_globals e.e_offset)) in
      let t = inst.i_tables.(e.e_table) in
      List.iteri
        (fun k fidx ->
          if off + k >= Table.size t then link_error "elem segment out of range";
          Table.set t (off + k) (Some fidx))
        e.e_funcs)
    m.elems;
  (* Data segments. *)
  List.iter
    (fun d ->
      let off = Int32.to_int (as_i32 (eval_const inst.i_globals d.d_offset)) in
      let mem = inst.i_memories.(d.d_mem) in
      try Memory.write_string mem ~addr:off d.d_bytes
      with Memory.Bounds -> link_error "data segment out of range")
    m.datas;
  (* Exports. *)
  List.iter
    (fun e ->
      let ext =
        match e.exp_desc with
        | Ed_func i -> E_func inst.i_funcs.(i)
        | Ed_memory i -> E_memory inst.i_memories.(i)
        | Ed_table i -> E_table inst.i_tables.(i)
        | Ed_global i -> E_global inst.i_globals.(i)
      in
      Hashtbl.replace inst.i_exports e.exp_name ext)
    m.exports;
  let start = Option.map (fun i -> inst.i_funcs.(i)) m.start in
  (inst, start)
