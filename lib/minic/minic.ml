(** MiniC driver: parse, link the libc, and compile to the chosen target.

    This module is the library root; the pipeline stages are re-exported
    below. *)

module Ast = Mc_ast
module Lexer = Mc_lexer
module Parser = Mc_parser
module Check = Mc_check
module Libc = Mc_stdlib
module Mc_ast = Mc_ast
module Mc_layout = Mc_layout
module Mc_wasm = Mc_wasm
module Mc_native = Mc_native
module Mc_rv = Mc_rv

let parse (src : string) : Mc_ast.program = Mc_parser.parse_program src

(** Parse an application together with the libc. *)
let parse_with_libc (src : string) : Mc_ast.program =
  Mc_parser.parse_program (Mc_stdlib.source ^ "\n" ^ src)

(** Compile MiniC source (plus libc) to a WALI Wasm module. *)
let to_wasm_module ?(with_libc = true) (src : string) : Wasm.Ast.module_ =
  let p = if with_libc then parse_with_libc src else parse src in
  Mc_wasm.compile p

(** Compile MiniC source to an encoded .wasm binary for the WALI target. *)
let to_wasm_binary ?with_libc (src : string) : string =
  Wasm.Binary.encode (to_wasm_module ?with_libc src)
