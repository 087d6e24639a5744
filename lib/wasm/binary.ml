(** Wasm binary format: encoder and decoder (core spec §5).

    Round-tripping through this codec is how WALI binaries are packaged
    for ISA-agnostic distribution; the decoder doubles as the loader for
    `walirun`. Custom sections are ignored on decode. *)

open Types
open Ast

exception Decode_error of string

let decode_error fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Encoder                                                              *)
(* ------------------------------------------------------------------ *)

module E = struct
  let byte b v = Buffer.add_char b (Char.chr (v land 0xff))

  let rec u32 b (v : int) =
    if v < 0 then invalid_arg "u32: negative";
    if v < 128 then byte b v
    else begin
      byte b (128 lor (v land 0x7f));
      u32 b (v lsr 7)
    end

  let rec s64 b (v : int64) =
    let low = Int64.to_int (Int64.logand v 0x7fL) in
    let rest = Int64.shift_right v 7 in
    if (rest = 0L && low land 0x40 = 0) || (rest = -1L && low land 0x40 <> 0)
    then byte b low
    else begin
      byte b (128 lor low);
      s64 b rest
    end

  let s32 b (v : int32) = s64 b (Int64.of_int32 v)

  let f32 b (bits : int32) =
    for i = 0 to 3 do
      byte b (Int32.to_int (Int32.shift_right_logical bits (8 * i)) land 0xff)
    done

  let f64 b (bits : int64) =
    for i = 0 to 7 do
      byte b (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

  let name b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let val_type b = function
    | T_i32 -> byte b 0x7F
    | T_i64 -> byte b 0x7E
    | T_f32 -> byte b 0x7D
    | T_f64 -> byte b 0x7C
    | T_funcref -> byte b 0x70

  let func_type b ft =
    byte b 0x60;
    u32 b (List.length ft.params);
    List.iter (val_type b) ft.params;
    u32 b (List.length ft.results);
    List.iter (val_type b) ft.results

  let limits b l =
    match l.lim_max with
    | None ->
        byte b 0x00;
        u32 b l.lim_min
    | Some mx ->
        byte b 0x01;
        u32 b l.lim_min;
        u32 b mx

  let block_type b = function
    | Bt_none -> byte b 0x40
    | Bt_val t -> val_type b t
    | Bt_type i -> s64 b (Int64.of_int i)

  let memop b (m : memop) =
    u32 b m.align;
    u32 b m.offset

  let ext_load b op_sx op_zx = function SX -> byte b op_sx | ZX -> byte b op_zx

  let rec instr b (i : instr) =
    match i with
    | Unreachable -> byte b 0x00
    | Nop -> byte b 0x01
    | Block (bt, body) ->
        byte b 0x02;
        block_type b bt;
        List.iter (instr b) body;
        byte b 0x0B
    | Loop (bt, body) ->
        byte b 0x03;
        block_type b bt;
        List.iter (instr b) body;
        byte b 0x0B
    | If (bt, t, e) ->
        byte b 0x04;
        block_type b bt;
        List.iter (instr b) t;
        if e <> [] then begin
          byte b 0x05;
          List.iter (instr b) e
        end;
        byte b 0x0B
    | Br i -> byte b 0x0C; u32 b i
    | Br_if i -> byte b 0x0D; u32 b i
    | Br_table (is, d) ->
        byte b 0x0E;
        u32 b (List.length is);
        List.iter (u32 b) is;
        u32 b d
    | Return -> byte b 0x0F
    | Call i -> byte b 0x10; u32 b i
    | Call_indirect (ti, tbl) -> byte b 0x11; u32 b ti; u32 b tbl
    | Drop -> byte b 0x1A
    | Select -> byte b 0x1B
    | Local_get i -> byte b 0x20; u32 b i
    | Local_set i -> byte b 0x21; u32 b i
    | Local_tee i -> byte b 0x22; u32 b i
    | Global_get i -> byte b 0x23; u32 b i
    | Global_set i -> byte b 0x24; u32 b i
    | I32_load m -> byte b 0x28; memop b m
    | I64_load m -> byte b 0x29; memop b m
    | F32_load m -> byte b 0x2A; memop b m
    | F64_load m -> byte b 0x2B; memop b m
    | I32_load8 (e, m) -> ext_load b 0x2C 0x2D e; memop b m
    | I32_load16 (e, m) -> ext_load b 0x2E 0x2F e; memop b m
    | I64_load8 (e, m) -> ext_load b 0x30 0x31 e; memop b m
    | I64_load16 (e, m) -> ext_load b 0x32 0x33 e; memop b m
    | I64_load32 (e, m) -> ext_load b 0x34 0x35 e; memop b m
    | I32_store m -> byte b 0x36; memop b m
    | I64_store m -> byte b 0x37; memop b m
    | F32_store m -> byte b 0x38; memop b m
    | F64_store m -> byte b 0x39; memop b m
    | I32_store8 m -> byte b 0x3A; memop b m
    | I32_store16 m -> byte b 0x3B; memop b m
    | I64_store8 m -> byte b 0x3C; memop b m
    | I64_store16 m -> byte b 0x3D; memop b m
    | I64_store32 m -> byte b 0x3E; memop b m
    | Memory_size -> byte b 0x3F; byte b 0x00
    | Memory_grow -> byte b 0x40; byte b 0x00
    | Memory_fill -> byte b 0xFC; u32 b 11; byte b 0x00
    | Memory_copy -> byte b 0xFC; u32 b 10; byte b 0x00; byte b 0x00
    | I32_const v -> byte b 0x41; s32 b v
    | I64_const v -> byte b 0x42; s64 b v
    | F32_const v -> byte b 0x43; f32 b v
    | F64_const v -> byte b 0x44; f64 b v
    | I32_eqz -> byte b 0x45
    | I32_relop o ->
        byte b
          (match o with
          | Eq -> 0x46 | Ne -> 0x47 | Lt_s -> 0x48 | Lt_u -> 0x49
          | Gt_s -> 0x4A | Gt_u -> 0x4B | Le_s -> 0x4C | Le_u -> 0x4D
          | Ge_s -> 0x4E | Ge_u -> 0x4F)
    | I64_eqz -> byte b 0x50
    | I64_relop o ->
        byte b
          (match o with
          | Eq -> 0x51 | Ne -> 0x52 | Lt_s -> 0x53 | Lt_u -> 0x54
          | Gt_s -> 0x55 | Gt_u -> 0x56 | Le_s -> 0x57 | Le_u -> 0x58
          | Ge_s -> 0x59 | Ge_u -> 0x5A)
    | F32_relop o ->
        byte b
          (match o with
          | Feq -> 0x5B | Fne -> 0x5C | Flt -> 0x5D | Fgt -> 0x5E
          | Fle -> 0x5F | Fge -> 0x60)
    | F64_relop o ->
        byte b
          (match o with
          | Feq -> 0x61 | Fne -> 0x62 | Flt -> 0x63 | Fgt -> 0x64
          | Fle -> 0x65 | Fge -> 0x66)
    | I32_unop o -> byte b (match o with Clz -> 0x67 | Ctz -> 0x68 | Popcnt -> 0x69)
    | I32_binop o ->
        byte b
          (match o with
          | Add -> 0x6A | Sub -> 0x6B | Mul -> 0x6C | Div_s -> 0x6D
          | Div_u -> 0x6E | Rem_s -> 0x6F | Rem_u -> 0x70 | And -> 0x71
          | Or -> 0x72 | Xor -> 0x73 | Shl -> 0x74 | Shr_s -> 0x75
          | Shr_u -> 0x76 | Rotl -> 0x77 | Rotr -> 0x78)
    | I64_unop o -> byte b (match o with Clz -> 0x79 | Ctz -> 0x7A | Popcnt -> 0x7B)
    | I64_binop o ->
        byte b
          (match o with
          | Add -> 0x7C | Sub -> 0x7D | Mul -> 0x7E | Div_s -> 0x7F
          | Div_u -> 0x80 | Rem_s -> 0x81 | Rem_u -> 0x82 | And -> 0x83
          | Or -> 0x84 | Xor -> 0x85 | Shl -> 0x86 | Shr_s -> 0x87
          | Shr_u -> 0x88 | Rotl -> 0x89 | Rotr -> 0x8A)
    | F32_unop o ->
        byte b
          (match o with
          | Abs -> 0x8B | Neg -> 0x8C | Ceil -> 0x8D | Floor -> 0x8E
          | Trunc -> 0x8F | Nearest -> 0x90 | Sqrt -> 0x91)
    | F32_binop o ->
        byte b
          (match o with
          | Fadd -> 0x92 | Fsub -> 0x93 | Fmul -> 0x94 | Fdiv -> 0x95
          | Fmin -> 0x96 | Fmax -> 0x97 | Copysign -> 0x98)
    | F64_unop o ->
        byte b
          (match o with
          | Abs -> 0x99 | Neg -> 0x9A | Ceil -> 0x9B | Floor -> 0x9C
          | Trunc -> 0x9D | Nearest -> 0x9E | Sqrt -> 0x9F)
    | F64_binop o ->
        byte b
          (match o with
          | Fadd -> 0xA0 | Fsub -> 0xA1 | Fmul -> 0xA2 | Fdiv -> 0xA3
          | Fmin -> 0xA4 | Fmax -> 0xA5 | Copysign -> 0xA6)
    | I32_wrap_i64 -> byte b 0xA7
    | I32_trunc_f32 e -> byte b (match e with SX -> 0xA8 | ZX -> 0xA9)
    | I32_trunc_f64 e -> byte b (match e with SX -> 0xAA | ZX -> 0xAB)
    | I64_extend_i32 e -> byte b (match e with SX -> 0xAC | ZX -> 0xAD)
    | I64_trunc_f32 e -> byte b (match e with SX -> 0xAE | ZX -> 0xAF)
    | I64_trunc_f64 e -> byte b (match e with SX -> 0xB0 | ZX -> 0xB1)
    | F32_convert_i32 e -> byte b (match e with SX -> 0xB2 | ZX -> 0xB3)
    | F32_convert_i64 e -> byte b (match e with SX -> 0xB4 | ZX -> 0xB5)
    | F32_demote_f64 -> byte b 0xB6
    | F64_convert_i32 e -> byte b (match e with SX -> 0xB7 | ZX -> 0xB8)
    | F64_convert_i64 e -> byte b (match e with SX -> 0xB9 | ZX -> 0xBA)
    | F64_promote_f32 -> byte b 0xBB
    | I32_reinterpret_f32 -> byte b 0xBC
    | I64_reinterpret_f64 -> byte b 0xBD
    | F32_reinterpret_i32 -> byte b 0xBE
    | F64_reinterpret_i64 -> byte b 0xBF
    | I32_extend8_s -> byte b 0xC0
    | I32_extend16_s -> byte b 0xC1
    | I64_extend8_s -> byte b 0xC2
    | I64_extend16_s -> byte b 0xC3
    | I64_extend32_s -> byte b 0xC4

  let expr b is =
    List.iter (instr b) is;
    byte b 0x0B

  let section b id payload =
    if Buffer.length payload > 0 then begin
      byte b id;
      u32 b (Buffer.length payload);
      Buffer.add_buffer b payload
    end

  let vec b n each =
    u32 b n;
    each ()
end

let encode (m : module_) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "\x00asm\x01\x00\x00\x00";
  let sec id fill =
    let p = Buffer.create 256 in
    fill p;
    E.section b id p
  in
  if Array.length m.types > 0 then
    sec 1 (fun p ->
        E.vec p (Array.length m.types) (fun () ->
            Array.iter (E.func_type p) m.types));
  if m.imports <> [] then
    sec 2 (fun p ->
        E.vec p (List.length m.imports) (fun () ->
            List.iter
              (fun i ->
                E.name p i.imp_module;
                E.name p i.imp_name;
                match i.imp_desc with
                | Id_func t -> E.byte p 0x00; E.u32 p t
                | Id_table l -> E.byte p 0x01; E.byte p 0x70; E.limits p l
                | Id_memory l -> E.byte p 0x02; E.limits p l
                | Id_global g ->
                    E.byte p 0x03;
                    E.val_type p g.gt_type;
                    E.byte p (match g.gt_mut with Immutable -> 0 | Mutable -> 1))
              m.imports));
  if Array.length m.funcs > 0 then
    sec 3 (fun p ->
        E.vec p (Array.length m.funcs) (fun () ->
            Array.iter (fun f -> E.u32 p f.f_type) m.funcs));
  if Array.length m.tables > 0 then
    sec 4 (fun p ->
        E.vec p (Array.length m.tables) (fun () ->
            Array.iter (fun l -> E.byte p 0x70; E.limits p l) m.tables));
  if Array.length m.memories > 0 then
    sec 5 (fun p ->
        E.vec p (Array.length m.memories) (fun () ->
            Array.iter (E.limits p) m.memories));
  if Array.length m.globals > 0 then
    sec 6 (fun p ->
        E.vec p (Array.length m.globals) (fun () ->
            Array.iter
              (fun g ->
                E.val_type p g.g_type.gt_type;
                E.byte p (match g.g_type.gt_mut with Immutable -> 0 | Mutable -> 1);
                E.expr p g.g_init)
              m.globals));
  if m.exports <> [] then
    sec 7 (fun p ->
        E.vec p (List.length m.exports) (fun () ->
            List.iter
              (fun e ->
                E.name p e.exp_name;
                match e.exp_desc with
                | Ed_func i -> E.byte p 0x00; E.u32 p i
                | Ed_table i -> E.byte p 0x01; E.u32 p i
                | Ed_memory i -> E.byte p 0x02; E.u32 p i
                | Ed_global i -> E.byte p 0x03; E.u32 p i)
              m.exports));
  (match m.start with
  | Some s -> sec 8 (fun p -> E.u32 p s)
  | None -> ());
  if m.elems <> [] then
    sec 9 (fun p ->
        E.vec p (List.length m.elems) (fun () ->
            List.iter
              (fun e ->
                E.u32 p e.e_table;
                E.expr p e.e_offset;
                E.u32 p (List.length e.e_funcs);
                List.iter (E.u32 p) e.e_funcs)
              m.elems));
  if Array.length m.funcs > 0 then
    sec 10 (fun p ->
        E.vec p (Array.length m.funcs) (fun () ->
            Array.iter
              (fun f ->
                let fb = Buffer.create 128 in
                (* Compress locals into (count, type) runs. *)
                let runs =
                  List.fold_left
                    (fun acc t ->
                      match acc with
                      | (n, t') :: rest when t' = t -> (n + 1, t') :: rest
                      | _ -> (1, t) :: acc)
                    [] f.f_locals
                  |> List.rev
                in
                E.u32 fb (List.length runs);
                List.iter
                  (fun (n, t) ->
                    E.u32 fb n;
                    E.val_type fb t)
                  runs;
                E.expr fb f.f_body;
                E.u32 p (Buffer.length fb);
                Buffer.add_buffer p fb)
              m.funcs));
  if m.datas <> [] then
    sec 11 (fun p ->
        E.vec p (List.length m.datas) (fun () ->
            List.iter
              (fun d ->
                E.u32 p d.d_mem;
                E.expr p d.d_offset;
                E.u32 p (String.length d.d_bytes);
                Buffer.add_string p d.d_bytes)
              m.datas));
  (* Custom "name" section, function-name subsection (spec §7.4.1):
     carries the compiler's diagnostic names across the binary boundary,
     so stacks in profiles and flamegraph diffs name real functions
     instead of synthetic func<N> indices. Execution is unaffected. *)
  let named =
    Array.to_list m.funcs
    |> List.mapi (fun i f -> (num_imported_funcs m + i, f.f_name))
    |> List.filter (fun (_, n) -> n <> "")
  in
  if named <> [] then begin
    let p = Buffer.create 256 in
    E.name p "name";
    let sub = Buffer.create 256 in
    E.u32 sub (List.length named);
    List.iter
      (fun (i, n) ->
        E.u32 sub i;
        E.name sub n)
      named;
    E.byte p 1;
    E.u32 p (Buffer.length sub);
    Buffer.add_buffer p sub;
    E.section b 0 p
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoder                                                              *)
(* ------------------------------------------------------------------ *)

module D = struct
  type t = {
    src : string;
    mutable pos : int;
    mutable limit : int; (* end of the current section *)
    mutable stop : int; (* the opcode that ended the last [instr_seq] *)
  }

  let make src = { src; pos = 0; limit = String.length src; stop = 0 }

  let eof d = d.pos >= d.limit

  let peek d =
    if eof d then decode_error "unexpected end of input";
    Char.code d.src.[d.pos]

  let byte d =
    let c = peek d in
    d.pos <- d.pos + 1;
    c

  let u32 d =
    let acc = ref 0 and shift = ref 0 and b = ref 0x80 in
    while !b land 0x80 <> 0 do
      b := byte d;
      acc := !acc lor ((!b land 0x7f) lsl !shift);
      shift := !shift + 7
    done;
    !acc

  let s64 d =
    let acc = ref 0L and shift = ref 0 and b = ref 0x80 in
    while !b land 0x80 <> 0 do
      b := byte d;
      acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (!b land 0x7f)) !shift);
      shift := !shift + 7
    done;
    if !shift < 64 && !b land 0x40 <> 0 then
      Int64.logor !acc (Int64.shift_left (-1L) !shift)
    else !acc

  (* A vector's length. Every element takes at least one byte, so a
     count beyond the bytes left in the section is malformed, and
     rejecting it here keeps a forged count from sizing an allocation. *)
  let count d =
    let n = u32 d in
    if n < 0 || n > d.limit - d.pos then
      decode_error "count %d exceeds the %d bytes left" n (d.limit - d.pos);
    n

  let s32 d = Int64.to_int32 (s64 d)

  let f32 d =
    let v = ref 0l in
    for i = 0 to 3 do
      v := Int32.logor !v (Int32.shift_left (Int32.of_int (byte d)) (8 * i))
    done;
    !v

  let f64 d =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte d)) (8 * i))
    done;
    !v

  let bytes d n =
    if n < 0 || n > d.limit - d.pos then decode_error "unexpected end of input";
    let s = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    s

  let name d = bytes d (u32 d)

  let val_type d =
    match byte d with
    | 0x7F -> T_i32
    | 0x7E -> T_i64
    | 0x7D -> T_f32
    | 0x7C -> T_f64
    | 0x70 -> T_funcref
    | b -> decode_error "bad value type 0x%02x" b

  let limits d =
    match byte d with
    | 0x00 -> { lim_min = u32 d; lim_max = None }
    | 0x01 ->
        let mn = u32 d in
        let mx = u32 d in
        { lim_min = mn; lim_max = Some mx }
    | b -> decode_error "bad limits flag 0x%02x" b

  let block_type d =
    (* Peek: 0x40 empty, valtype byte, or signed LEB index. *)
    match peek d with
    | 0x40 -> d.pos <- d.pos + 1; Bt_none
    | 0x7F | 0x7E | 0x7D | 0x7C | 0x70 -> Bt_val (val_type d)
    | _ -> Bt_type (Int64.to_int (s64 d))

  let memop d =
    let align = u32 d in
    let offset = u32 d in
    { align; offset }

  (* The instructions up to [end], or up to [else] when [in_if]; the
     opcode that ended the sequence is left in [d.stop]. *)
  let[@tail_mod_cons] rec instr_seq d ~in_if : instr list =
    let op = byte d in
    if op = 0x0B || (in_if && op = 0x05) then begin
      d.stop <- op;
      []
    end
    else
      let i = decode_instr d op in
      i :: instr_seq d ~in_if

  and decode_instr d op : instr =
    match op with
    | 0x00 -> Unreachable
    | 0x01 -> Nop
    | 0x02 ->
        let bt = block_type d in
        Block (bt, instr_seq d ~in_if:false)
    | 0x03 ->
        let bt = block_type d in
        Loop (bt, instr_seq d ~in_if:false)
    | 0x04 ->
        let bt = block_type d in
        let t = instr_seq d ~in_if:true in
        let e = if d.stop = 0x05 then instr_seq d ~in_if:false else [] in
        If (bt, t, e)
    | 0x0C -> Br (u32 d)
    | 0x0D -> Br_if (u32 d)
    | 0x0E ->
        let is = List.init (count d) (fun _ -> u32 d) in
        Br_table (is, u32 d)
    | 0x0F -> Return
    | 0x10 -> Call (u32 d)
    | 0x11 ->
        let ti = u32 d in
        let tbl = u32 d in
        Call_indirect (ti, tbl)
    | 0x1A -> Drop
    | 0x1B -> Select
    | 0x20 -> Local_get (u32 d)
    | 0x21 -> Local_set (u32 d)
    | 0x22 -> Local_tee (u32 d)
    | 0x23 -> Global_get (u32 d)
    | 0x24 -> Global_set (u32 d)
    | 0x28 -> I32_load (memop d)
    | 0x29 -> I64_load (memop d)
    | 0x2A -> F32_load (memop d)
    | 0x2B -> F64_load (memop d)
    | 0x2C -> I32_load8 (SX, memop d)
    | 0x2D -> I32_load8 (ZX, memop d)
    | 0x2E -> I32_load16 (SX, memop d)
    | 0x2F -> I32_load16 (ZX, memop d)
    | 0x30 -> I64_load8 (SX, memop d)
    | 0x31 -> I64_load8 (ZX, memop d)
    | 0x32 -> I64_load16 (SX, memop d)
    | 0x33 -> I64_load16 (ZX, memop d)
    | 0x34 -> I64_load32 (SX, memop d)
    | 0x35 -> I64_load32 (ZX, memop d)
    | 0x36 -> I32_store (memop d)
    | 0x37 -> I64_store (memop d)
    | 0x38 -> F32_store (memop d)
    | 0x39 -> F64_store (memop d)
    | 0x3A -> I32_store8 (memop d)
    | 0x3B -> I32_store16 (memop d)
    | 0x3C -> I64_store8 (memop d)
    | 0x3D -> I64_store16 (memop d)
    | 0x3E -> I64_store32 (memop d)
    | 0x3F -> ignore (byte d); Memory_size
    | 0x40 -> ignore (byte d); Memory_grow
    | 0x41 -> I32_const (s32 d)
    | 0x42 -> I64_const (s64 d)
    | 0x43 -> F32_const (f32 d)
    | 0x44 -> F64_const (f64 d)
    | 0x45 -> I32_eqz
    | 0x46 -> I32_relop Eq | 0x47 -> I32_relop Ne
    | 0x48 -> I32_relop Lt_s | 0x49 -> I32_relop Lt_u
    | 0x4A -> I32_relop Gt_s | 0x4B -> I32_relop Gt_u
    | 0x4C -> I32_relop Le_s | 0x4D -> I32_relop Le_u
    | 0x4E -> I32_relop Ge_s | 0x4F -> I32_relop Ge_u
    | 0x50 -> I64_eqz
    | 0x51 -> I64_relop Eq | 0x52 -> I64_relop Ne
    | 0x53 -> I64_relop Lt_s | 0x54 -> I64_relop Lt_u
    | 0x55 -> I64_relop Gt_s | 0x56 -> I64_relop Gt_u
    | 0x57 -> I64_relop Le_s | 0x58 -> I64_relop Le_u
    | 0x59 -> I64_relop Ge_s | 0x5A -> I64_relop Ge_u
    | 0x5B -> F32_relop Feq | 0x5C -> F32_relop Fne
    | 0x5D -> F32_relop Flt | 0x5E -> F32_relop Fgt
    | 0x5F -> F32_relop Fle | 0x60 -> F32_relop Fge
    | 0x61 -> F64_relop Feq | 0x62 -> F64_relop Fne
    | 0x63 -> F64_relop Flt | 0x64 -> F64_relop Fgt
    | 0x65 -> F64_relop Fle | 0x66 -> F64_relop Fge
    | 0x67 -> I32_unop Clz | 0x68 -> I32_unop Ctz | 0x69 -> I32_unop Popcnt
    | 0x6A -> I32_binop Add | 0x6B -> I32_binop Sub | 0x6C -> I32_binop Mul
    | 0x6D -> I32_binop Div_s | 0x6E -> I32_binop Div_u
    | 0x6F -> I32_binop Rem_s | 0x70 -> I32_binop Rem_u
    | 0x71 -> I32_binop And | 0x72 -> I32_binop Or | 0x73 -> I32_binop Xor
    | 0x74 -> I32_binop Shl | 0x75 -> I32_binop Shr_s | 0x76 -> I32_binop Shr_u
    | 0x77 -> I32_binop Rotl | 0x78 -> I32_binop Rotr
    | 0x79 -> I64_unop Clz | 0x7A -> I64_unop Ctz | 0x7B -> I64_unop Popcnt
    | 0x7C -> I64_binop Add | 0x7D -> I64_binop Sub | 0x7E -> I64_binop Mul
    | 0x7F -> I64_binop Div_s | 0x80 -> I64_binop Div_u
    | 0x81 -> I64_binop Rem_s | 0x82 -> I64_binop Rem_u
    | 0x83 -> I64_binop And | 0x84 -> I64_binop Or | 0x85 -> I64_binop Xor
    | 0x86 -> I64_binop Shl | 0x87 -> I64_binop Shr_s | 0x88 -> I64_binop Shr_u
    | 0x89 -> I64_binop Rotl | 0x8A -> I64_binop Rotr
    | 0x8B -> F32_unop Abs | 0x8C -> F32_unop Neg | 0x8D -> F32_unop Ceil
    | 0x8E -> F32_unop Floor | 0x8F -> F32_unop Trunc
    | 0x90 -> F32_unop Nearest | 0x91 -> F32_unop Sqrt
    | 0x92 -> F32_binop Fadd | 0x93 -> F32_binop Fsub | 0x94 -> F32_binop Fmul
    | 0x95 -> F32_binop Fdiv | 0x96 -> F32_binop Fmin | 0x97 -> F32_binop Fmax
    | 0x98 -> F32_binop Copysign
    | 0x99 -> F64_unop Abs | 0x9A -> F64_unop Neg | 0x9B -> F64_unop Ceil
    | 0x9C -> F64_unop Floor | 0x9D -> F64_unop Trunc
    | 0x9E -> F64_unop Nearest | 0x9F -> F64_unop Sqrt
    | 0xA0 -> F64_binop Fadd | 0xA1 -> F64_binop Fsub | 0xA2 -> F64_binop Fmul
    | 0xA3 -> F64_binop Fdiv | 0xA4 -> F64_binop Fmin | 0xA5 -> F64_binop Fmax
    | 0xA6 -> F64_binop Copysign
    | 0xA7 -> I32_wrap_i64
    | 0xA8 -> I32_trunc_f32 SX | 0xA9 -> I32_trunc_f32 ZX
    | 0xAA -> I32_trunc_f64 SX | 0xAB -> I32_trunc_f64 ZX
    | 0xAC -> I64_extend_i32 SX | 0xAD -> I64_extend_i32 ZX
    | 0xAE -> I64_trunc_f32 SX | 0xAF -> I64_trunc_f32 ZX
    | 0xB0 -> I64_trunc_f64 SX | 0xB1 -> I64_trunc_f64 ZX
    | 0xB2 -> F32_convert_i32 SX | 0xB3 -> F32_convert_i32 ZX
    | 0xB4 -> F32_convert_i64 SX | 0xB5 -> F32_convert_i64 ZX
    | 0xB6 -> F32_demote_f64
    | 0xB7 -> F64_convert_i32 SX | 0xB8 -> F64_convert_i32 ZX
    | 0xB9 -> F64_convert_i64 SX | 0xBA -> F64_convert_i64 ZX
    | 0xBB -> F64_promote_f32
    | 0xBC -> I32_reinterpret_f32 | 0xBD -> I64_reinterpret_f64
    | 0xBE -> F32_reinterpret_i32 | 0xBF -> F64_reinterpret_i64
    | 0xC0 -> I32_extend8_s | 0xC1 -> I32_extend16_s
    | 0xC2 -> I64_extend8_s | 0xC3 -> I64_extend16_s | 0xC4 -> I64_extend32_s
    | 0xFC -> (
        match u32 d with
        | 10 ->
            ignore (byte d);
            ignore (byte d);
            Memory_copy
        | 11 ->
            ignore (byte d);
            Memory_fill
        | n -> decode_error "unsupported 0xFC opcode %d" n)
    | op -> decode_error "unsupported opcode 0x%02x" op

  let expr d = instr_seq d ~in_if:false
end

let decode ?(name = "") (src : string) : module_ =
  let d = D.make src in
  if D.bytes d 4 <> "\x00asm" then decode_error "bad magic";
  if D.bytes d 4 <> "\x01\x00\x00\x00" then decode_error "bad version";
  let m = ref { empty_module with m_name = name } in
  let func_type_idxs = ref [||] in
  let src_len = String.length src in
  while not (D.eof d) do
    let id = D.byte d in
    let size = D.u32 d in
    if size < 0 || size > src_len - d.D.pos then
      decode_error "section %d overruns the input" id;
    let stop = d.D.pos + size in
    d.D.limit <- stop;
    (match id with
    | 0 ->
        (* Custom section: decode function names from the "name" section
           (it follows the code section, so funcs are already in place);
           every other custom section is skipped. *)
        if D.name d = "name" then begin
          let nimported = num_imported_funcs !m in
          while d.D.pos < stop do
            let sub = D.byte d in
            let len = D.u32 d in
            let sub_stop = d.D.pos + len in
            if sub = 1 then begin
              for _ = 1 to D.count d do
                let idx = D.u32 d in
                let nm = D.name d in
                let j = idx - nimported in
                if j >= 0 && j < Array.length !m.funcs then
                  !m.funcs.(j) <- { (!m.funcs.(j)) with f_name = nm }
              done
            end;
            d.D.pos <- sub_stop
          done
        end;
        d.D.pos <- stop
    | 1 ->
        let n = D.count d in
        let types =
          Array.init n (fun _ ->
              if D.byte d <> 0x60 then decode_error "bad functype tag";
              let np = D.count d in
              let params = List.init np (fun _ -> D.val_type d) in
              let nr = D.count d in
              let results = List.init nr (fun _ -> D.val_type d) in
              { params; results })
        in
        m := { !m with types }
    | 2 ->
        let n = D.count d in
        let imports =
          List.init n (fun _ ->
              let imp_module = D.name d in
              let imp_name = D.name d in
              let imp_desc =
                match D.byte d with
                | 0x00 -> Id_func (D.u32 d)
                | 0x01 ->
                    if D.byte d <> 0x70 then decode_error "bad table elem type";
                    Id_table (D.limits d)
                | 0x02 -> Id_memory (D.limits d)
                | 0x03 ->
                    let t = D.val_type d in
                    let mut = if D.byte d = 1 then Mutable else Immutable in
                    Id_global { gt_type = t; gt_mut = mut }
                | b -> decode_error "bad import kind 0x%02x" b
              in
              { imp_module; imp_name; imp_desc })
        in
        m := { !m with imports }
    | 3 ->
        let n = D.count d in
        func_type_idxs := Array.init n (fun _ -> D.u32 d)
    | 4 ->
        let n = D.count d in
        let tables =
          Array.init n (fun _ ->
              if D.byte d <> 0x70 then decode_error "bad table elem type";
              D.limits d)
        in
        m := { !m with tables }
    | 5 ->
        let n = D.count d in
        m := { !m with memories = Array.init n (fun _ -> D.limits d) }
    | 6 ->
        let n = D.count d in
        let globals =
          Array.init n (fun _ ->
              let t = D.val_type d in
              let mut = if D.byte d = 1 then Mutable else Immutable in
              let init = D.expr d in
              { g_type = { gt_type = t; gt_mut = mut }; g_init = init })
        in
        m := { !m with globals }
    | 7 ->
        let n = D.count d in
        let exports =
          List.init n (fun _ ->
              let exp_name = D.name d in
              let exp_desc =
                match D.byte d with
                | 0x00 -> Ed_func (D.u32 d)
                | 0x01 -> Ed_table (D.u32 d)
                | 0x02 -> Ed_memory (D.u32 d)
                | 0x03 -> Ed_global (D.u32 d)
                | b -> decode_error "bad export kind 0x%02x" b
              in
              { exp_name; exp_desc })
        in
        m := { !m with exports }
    | 8 -> m := { !m with start = Some (D.u32 d) }
    | 9 ->
        let n = D.count d in
        let elems =
          List.init n (fun _ ->
              let e_table = D.u32 d in
              let e_offset = D.expr d in
              let e_funcs = List.init (D.count d) (fun _ -> D.u32 d) in
              { e_table; e_offset; e_funcs })
        in
        m := { !m with elems }
    | 10 ->
        let n = D.count d in
        if n <> Array.length !func_type_idxs then
          decode_error "function/code section mismatch";
        let funcs =
          Array.init n (fun i ->
              let _size = D.u32 d in
              let total = ref 0 in
              let locals =
                List.concat
                  (List.init (D.count d) (fun _ ->
                       let c = D.u32 d in
                       total := !total + c;
                       if c < 0 || !total > Rt.Machine.max_slots then
                         decode_error "function %d declares over %d locals" i
                           Rt.Machine.max_slots;
                       let t = D.val_type d in
                       List.init c (fun _ -> t)))
              in
              let body = D.expr d in
              {
                f_type = !func_type_idxs.(i);
                f_locals = locals;
                f_body = body;
                f_name = "func" ^ string_of_int i;
              })
        in
        m := { !m with funcs }
    | 11 ->
        let n = D.count d in
        let datas =
          List.init n (fun _ ->
              let d_mem = D.u32 d in
              let d_offset = D.expr d in
              let len = D.u32 d in
              let d_bytes = D.bytes d len in
              { d_mem; d_offset; d_bytes })
        in
        m := { !m with datas }
    | id -> decode_error "unknown section id %d" id);
    if d.D.pos <> stop then decode_error "section %d size mismatch" id;
    d.D.limit <- src_len
  done;
  !m
