(** Programmatic module construction.

    Used by the MiniC code generator, the WASI adapter generator and the
    tests. All function imports must be added before the first local
    function declaration so that index spaces are final as soon as a
    function is referenced. *)

open Types
open Ast

type t = {
  mutable b_types : func_type list; (* reversed *)
  mutable b_imports : import list; (* reversed *)
  mutable b_funcs : (int * val_type list * instr list * string) option array;
  mutable b_nfuncs : int;
  mutable b_num_imported_funcs : int;
  mutable b_memories : limits list; (* reversed *)
  mutable b_tables : limits list; (* reversed *)
  mutable b_globals : global list; (* reversed *)
  mutable b_exports : export list; (* reversed *)
  mutable b_elems : elem list; (* reversed *)
  mutable b_datas : data list; (* reversed *)
  mutable b_sealed_imports : bool;
  b_name : string;
}

let create ?(name = "") () =
  {
    b_types = [];
    b_imports = [];
    b_funcs = Array.make 16 None;
    b_nfuncs = 0;
    b_num_imported_funcs = 0;
    b_memories = [];
    b_tables = [];
    b_globals = [];
    b_exports = [];
    b_elems = [];
    b_datas = [];
    b_sealed_imports = false;
    b_name = name;
  }

(** Intern a function type, returning its index. *)
let type_idx b ~params ~results =
  let ft = { params; results } in
  let rec find i = function
    | [] -> None
    | t :: _ when func_type_equal t ft -> Some (List.length b.b_types - 1 - i + i)
    | _ :: rest -> find (i + 1) rest
  in
  ignore find;
  (* types are stored reversed; search with positional arithmetic *)
  let n = List.length b.b_types in
  let rec search i = function
    | [] -> None
    | t :: rest ->
        if func_type_equal t ft then Some (n - 1 - i) else search (i + 1) rest
  in
  match search 0 b.b_types with
  | Some i -> i
  | None ->
      b.b_types <- ft :: b.b_types;
      n

let import_func b ~module_ ~name ~params ~results =
  if b.b_sealed_imports then
    invalid_arg "Builder.import_func: after local function declarations";
  let ti = type_idx b ~params ~results in
  b.b_imports <-
    { imp_module = module_; imp_name = name; imp_desc = Id_func ti }
    :: b.b_imports;
  b.b_num_imported_funcs <- b.b_num_imported_funcs + 1;
  b.b_num_imported_funcs - 1

let import_memory b ~module_ ~name ~min ~max =
  b.b_imports <-
    { imp_module = module_; imp_name = name;
      imp_desc = Id_memory { lim_min = min; lim_max = max } }
    :: b.b_imports

(** Declare a function; body is supplied later with {!define}. Returns the
    function's index in the final module. *)
let declare_func b ~name ~params ~results =
  b.b_sealed_imports <- true;
  let ti = type_idx b ~params ~results in
  if b.b_nfuncs = Array.length b.b_funcs then begin
    let a = Array.make (2 * b.b_nfuncs) None in
    Array.blit b.b_funcs 0 a 0 b.b_nfuncs;
    b.b_funcs <- a
  end;
  b.b_funcs.(b.b_nfuncs) <- Some (ti, [], [ Unreachable ], name);
  b.b_nfuncs <- b.b_nfuncs + 1;
  b.b_num_imported_funcs + b.b_nfuncs - 1

let define b fidx ~locals body =
  let i = fidx - b.b_num_imported_funcs in
  if i < 0 || i >= b.b_nfuncs then invalid_arg "Builder.define: bad index";
  match b.b_funcs.(i) with
  | None -> invalid_arg "Builder.define: undeclared"
  | Some (ti, _, _, name) -> b.b_funcs.(i) <- Some (ti, locals, body, name)

(** Declare + define in one step (no recursion/forward references). *)
let func b ~name ~params ~results ~locals body =
  let i = declare_func b ~name ~params ~results in
  define b i ~locals body;
  i

let add_memory b ~min ~max =
  b.b_memories <- { lim_min = min; lim_max = max } :: b.b_memories;
  List.length b.b_memories - 1

let add_table b ~min ~max =
  b.b_tables <- { lim_min = min; lim_max = max } :: b.b_tables;
  List.length b.b_tables - 1

let add_global b ~mut ~typ init =
  b.b_globals <-
    { g_type = { gt_type = typ; gt_mut = mut }; g_init = init } :: b.b_globals;
  List.length b.b_globals - 1

let export_func b name fidx =
  b.b_exports <- { exp_name = name; exp_desc = Ed_func fidx } :: b.b_exports

let export_memory b name midx =
  b.b_exports <- { exp_name = name; exp_desc = Ed_memory midx } :: b.b_exports

let export_global b name gidx =
  b.b_exports <- { exp_name = name; exp_desc = Ed_global gidx } :: b.b_exports

let add_elem b ~table ~offset funcs =
  b.b_elems <-
    { e_table = table; e_offset = [ I32_const (Int32.of_int offset) ];
      e_funcs = funcs }
    :: b.b_elems

let add_data b ~offset bytes =
  b.b_datas <-
    { d_mem = 0; d_offset = [ I32_const (Int32.of_int offset) ]; d_bytes = bytes }
    :: b.b_datas

let build b : module_ =
  let funcs =
    Array.init b.b_nfuncs (fun i ->
        match b.b_funcs.(i) with
        | Some (ti, locals, body, name) ->
            { f_type = ti; f_locals = locals; f_body = body; f_name = name }
        | None -> assert false)
  in
  {
    types = Array.of_list (List.rev b.b_types);
    imports = List.rev b.b_imports;
    funcs;
    tables = Array.of_list (List.rev b.b_tables);
    memories = Array.of_list (List.rev b.b_memories);
    globals = Array.of_list (List.rev b.b_globals);
    exports = List.rev b.b_exports;
    start = None;
    elems = List.rev b.b_elems;
    datas = List.rev b.b_datas;
    m_name = b.b_name;
  }
