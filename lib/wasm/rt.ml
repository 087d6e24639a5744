(** Runtime structures: memories, tables, globals, instances, and the
    explicit machine state.

    The machine's value stack and call frames are plain data, which is what
    makes the WALI process model implementable: [Machine.clone] gives
    [fork] its child image, instance-per-thread shares the {!Memory.t}
    object, and safepoint delivery pushes a handler frame onto a live
    machine (paper §3.1/§3.3). *)

open Types
open Values

(* ------------------------------------------------------------------ *)
(* Linear memory                                                        *)
(* ------------------------------------------------------------------ *)

module Memory = struct
  type t = {
    mutable data : Bytes.t;
    mutable pages : int;
    max_pages : int;
  }

  exception Bounds

  (* The bytes of released memories (DESIGN, "Linear-memory lifetime"),
     at most [free_cap] bytes in all, per domain. Every buffer is a
     whole number of pages, so [free_cap / page_size] slots always have
     room; an empty slot holds [Bytes.empty]. [create] and [clone] take
     an exact-size buffer from here before they allocate one. *)
  type free = { slots : Bytes.t array; mutable held : int }

  let free_cap = 256 * 1024

  let free_key =
    Domain.DLS.new_key (fun () ->
        { slots = Array.make (free_cap / page_size) Bytes.empty; held = 0 })

  let free_bytes () = (Domain.DLS.get free_key).held

  (* Slot [i] onwards: the first buffer of [n] bytes, emptied, or
     [Bytes.empty]. *)
  let rec take_from fl n i =
    if i = Array.length fl.slots then Bytes.empty
    else
      let b = fl.slots.(i) in
      if Bytes.length b = n then begin
        fl.slots.(i) <- Bytes.empty;
        fl.held <- fl.held - n;
        b
      end
      else take_from fl n (i + 1)

  let take n = take_from (Domain.DLS.get free_key) n 0

  let create ~(min_pages : int) ~(max_pages : int) =
    let n = min_pages * page_size in
    let b = take n in
    let data = if b == Bytes.empty then Bytes.make n '\000' else (Bytes.fill b 0 n '\000'; b) in
    { data; pages = min_pages; max_pages }

  (** Detach [m] from its bytes once nothing can run on it any more: it
      keeps 0 pages, so a stale reference traps or gets -EFAULT and never
      sees a buffer that a later memory reuses. The bytes go on the free
      list if they fit under [free_cap]. Releasing twice is a no-op. *)
  let release m =
    let b = m.data in
    let n = Bytes.length b in
    m.data <- Bytes.empty;
    m.pages <- 0;
    let fl = Domain.DLS.get free_key in
    if n > 0 && fl.held + n <= free_cap then begin
      let i = ref 0 in
      while fl.slots.(!i) != Bytes.empty do incr i done;
      fl.slots.(!i) <- b;
      fl.held <- fl.held + n
    end

  let size_pages m = m.pages
  let size_bytes m = m.pages * page_size

  (** Grow by [n] pages; returns previous size in pages or -1 on failure
      (Wasm memory.grow semantics). *)
  let grow m n =
    if n < 0 then -1
    else
      let old = m.pages in
      let np = old + n in
      if np > m.max_pages then -1
      else begin
        let data = Bytes.make (np * page_size) '\000' in
        Bytes.blit m.data 0 data 0 (old * page_size);
        m.data <- data;
        m.pages <- np;
        old
      end

  let check m addr len =
    if addr < 0 || len < 0 || addr + len > size_bytes m then raise Bounds

  let load8_u m a = check m a 1; Char.code (Bytes.get m.data a)
  let load8_s m a = let v = load8_u m a in if v >= 128 then v - 256 else v
  let load16_u m a = check m a 2; Bytes.get_uint16_le m.data a
  let load16_s m a = check m a 2; Bytes.get_int16_le m.data a
  let load32 m a = check m a 4; Bytes.get_int32_le m.data a
  let load64 m a = check m a 8; Bytes.get_int64_le m.data a

  let store8 m a v = check m a 1; Bytes.set_uint8 m.data a (v land 0xff)
  let store16 m a v = check m a 2; Bytes.set_uint16_le m.data a (v land 0xffff)
  let store32 m a v = check m a 4; Bytes.set_int32_le m.data a v
  let store64 m a v = check m a 8; Bytes.set_int64_le m.data a v

  let fill m ~dst ~byte ~len =
    check m dst len;
    Bytes.fill m.data dst len (Char.chr (byte land 0xff))

  let copy m ~dst ~src ~len =
    check m dst len;
    check m src len;
    Bytes.blit m.data src m.data dst len

  let read_string m ~addr ~len =
    check m addr len;
    Bytes.sub_string m.data addr len

  (** Read a NUL-terminated string. *)
  let read_cstring m ~addr =
    let limit = size_bytes m in
    let rec find i =
      if i >= limit then raise Bounds
      else if Bytes.get m.data i = '\000' then i
      else find (i + 1)
    in
    let e = find addr in
    Bytes.sub_string m.data addr (e - addr)

  let write_string m ~addr s =
    check m addr (String.length s);
    Bytes.blit_string s 0 m.data addr (String.length s)

  let clone m =
    let n = Bytes.length m.data in
    let b = take n in
    let data = if b == Bytes.empty then Bytes.copy m.data else (Bytes.blit m.data 0 b 0 n; b) in
    { m with data }
end

module Table = struct
  type t = { mutable elems : int option array; max : int option }
  (** Entries are function addresses (indices into the owning instance's
      function space); [None] is a null funcref. *)

  let create ~(min : int) ~(max : int option) =
    { elems = Array.make min None; max }

  let size t = Array.length t.elems

  let get t i =
    if i < 0 || i >= size t then trap "undefined element" else t.elems.(i)

  let set t i v =
    if i < 0 || i >= size t then trap "table index out of bounds";
    t.elems.(i) <- v
end

module Global = struct
  type t = { mutable value : value; mut : mutability }

  let create mut value = { value; mut }
  let get g = g.value
  let set g v = g.value <- v
end

(* ------------------------------------------------------------------ *)
(* Instances, functions, machine                                        *)
(* ------------------------------------------------------------------ *)

type instance = {
  i_name : string;
  i_types : func_type array;
  mutable i_funcs : func_inst array;
  i_memories : Memory.t array;
  i_tables : Table.t array;
  i_globals : Global.t array;
  i_exports : (string, extern) Hashtbl.t;
  i_codes : Code.fcode array; (* local function bodies *)
}

and func_inst =
  | Wasm_func of { wf_inst : instance; wf_code : Code.fcode }
  | Host_func of { hf_name : string; hf_type : func_type; hf_fn : host_fn }
  | Host_slot of { hs_name : string; hs_type : func_type; hs_fn : slot_fn }

and extern =
  | E_func of func_inst
  | E_memory of Memory.t
  | E_table of Table.t
  | E_global of Global.t

and host_fn = machine -> value array -> host_outcome

(** A host function on the slot convention, with one result: called as
    [hs_fn m base], it reads its arguments from [m]'s stack slots
    [base, base + arity), which stay live under anything pushed meanwhile
    until it returns, and returns the result's slot bits. No
    {!Values.value} is built. *)
and slot_fn = machine -> int -> int64

(** What a host function tells the engine loop to do. [H_fork] and
    [H_exec] require machine surgery that only the engine loop can
    perform (§3.1); everything else is handled inline. *)
and host_outcome =
  | H_return of value list
  | H_trap of string
  | H_exit of int
  | H_fork of (machine -> int64) (* engine clones machine, callback returns parent's result *)
  | H_exec of (unit -> machine) (* replace the process image *)

and frame = {
  (* All fields mutable: the machine keeps a growable array of frame
     records that are reused in place across calls/returns, so a call
     allocates no frame. *)
  mutable fr_inst : instance;
  mutable fr_code : Code.fcode;
  mutable fr_fp : int;
      (* slot of local 0 (params first); also the stack height that
         [return] restores before pushing the results *)
  mutable fr_pc : int;
}

(* The value stack is a [Bytes.t] of untagged 8-byte slots. Validation
   has fixed each slot's type, so the slot holds only bits: an i32 or
   f32 sign-extended from 32 bits (so [Int64.to_int] reads an i32 back as
   the OCaml [int] the interpreter computes with), an i64 or f64 as is.
   A frame's locals are the slots [fr_fp, fr_fp + nlocals): a call's
   arguments become its first locals in place, and the operand stack
   grows above them. [Values.value] appears only at the edges — boxed
   host-call arguments and results, [Interp.invoke]/[call_nested],
   globals and {!Machine.push}. *)
and machine = {
  mutable stack : Bytes.t;
  mutable sp : int; (* live slots *)
  mutable frames : frame array; (* slots 0..depth-1 live; top = depth-1 *)
  mutable depth : int; (* live frame count *)
  mutable m_inst : instance; (* root instance (the process image) *)
  mutable hot_steps : int; (* executed ops, counted by the interpreter *)
  mutable hot_fused : int; (* superinstruction dispatches (fusion coverage) *)
  mutable steps : int64; (* snapshot of [hot_steps], see [Machine.sync] *)
  mutable fused : int64; (* snapshot of [hot_fused] *)
  mutable poll_hook : (machine -> unit) option;
  mutable m_attn : bool ref;
      (* the attention cell: a safepoint poll calls [poll_hook] only while
         it is set. The engine points it at its task's cell; a machine no
         engine owns keeps its own, which nothing clears *)
  mutable prof_hook : (machine -> unit) option;
      (* profiler sample hook, fired on frame push/pop before the frame
         stack mutates (so the sampled stack is the one that ran) *)
  mutable m_pid : int; (* owning simulated process; engine bookkeeping *)
}

let func_type_of = function
  | Wasm_func { wf_code; _ } -> wf_code.Code.fc_type
  | Host_func { hf_type; _ } -> hf_type
  | Host_slot { hs_type; _ } -> hs_type

let func_name_of = function
  | Wasm_func { wf_code; _ } -> wf_code.Code.fc_name
  | Host_func { hf_name; _ } -> hf_name
  | Host_slot { hs_name; _ } -> hs_name

module Machine = struct
  type t = machine

  (* Placeholder contents for not-yet-used frame slots. Never executed:
     the interpreter only reads frames below [depth]. *)
  let null_inst : instance =
    {
      i_name = "";
      i_types = [||];
      i_funcs = [||];
      i_memories = [||];
      i_tables = [||];
      i_globals = [||];
      i_exports = Hashtbl.create 1;
      i_codes = [||];
    }

  let null_code : Code.fcode =
    {
      Code.fc_name = "";
      fc_type = { params = []; results = [] };
      fc_arity = 0;
      fc_nparams = 0;
      fc_locals = [||];
      fc_max_height = 0;
      fc_ops = [||];
    }

  let null_frame () =
    { fr_inst = null_inst; fr_code = null_code; fr_fp = 0; fr_pc = 0 }

  (* Guest recursion is bounded by frame count and by value-stack slots
     (8 MiB), so a runaway guest traps instead of exhausting the host.
     No bundled app comes near either bound. *)
  let max_frames = 1 lsl 16
  let max_slots = 1 lsl 20

  let create inst =
    {
      stack = Bytes.make (256 * 8) '\000';
      sp = 0;
      frames = Array.init 16 (fun _ -> null_frame ());
      depth = 0;
      m_inst = inst;
      hot_steps = 0;
      hot_fused = 0;
      steps = 0L;
      fused = 0L;
      poll_hook = None;
      m_attn = ref true;
      prof_hook = None;
      m_pid = 0;
    }

  (** Publish the hot counters to the [steps]/[fused] snapshot. The
      interpreter calls this wherever control leaves its loop: before a
      host call, the poll hook and the profiler hook, and when the run
      ends (result, trap or exit). *)
  let sync m =
    m.steps <- Int64.of_int m.hot_steps;
    m.fused <- Int64.of_int m.hot_fused

  (** Make room for [n] slots in total. *)
  let reserve m n =
    let cap = Bytes.length m.stack / 8 in
    if n > cap then begin
      if n > max_slots then trap "call stack exhausted";
      let s = Bytes.make (8 * min max_slots (max n (2 * cap))) '\000' in
      Bytes.blit m.stack 0 s 0 (8 * m.sp);
      m.stack <- s
    end

  (** Push a tagged value as a slot (the API edge; the interpreter
      writes slots directly). *)
  let push m v =
    reserve m (m.sp + 1);
    Bytes.set_int64_ne m.stack (8 * m.sp) (Values.to_slot v);
    m.sp <- m.sp + 1

  let grow_frames m =
    let old = m.frames in
    let n = Array.length old in
    if n >= max_frames then trap "call stack exhausted";
    m.frames <-
      Array.init (2 * n) (fun i -> if i < n then old.(i) else null_frame ())

  (** Push a call frame for [code] whose arguments are the top
      [n_params] slots of the stack: they become its first locals, and
      the remaining locals are zeroed (all-zero bits is the default of
      every type). The frame record is reused from a previous call at
      the same depth, and the stack is grown here to hold the body's
      locals and operand stack, so the body's own pushes never need to
      grow it. *)
  let push_frame m inst (code : Code.fcode) =
    (match m.prof_hook with Some h -> sync m; h m | None -> ());
    let nparams = code.Code.fc_nparams in
    let nlocals = Array.length code.Code.fc_locals in
    if m.sp < nparams then trap "call: missing arguments";
    let fp = m.sp - nparams in
    if m.depth = Array.length m.frames then grow_frames m;
    reserve m (fp + nlocals + code.Code.fc_max_height);
    for k = m.sp to fp + nlocals - 1 do
      Bytes.set_int64_ne m.stack (8 * k) 0L
    done;
    let fr = m.frames.(m.depth) in
    fr.fr_inst <- inst;
    fr.fr_code <- code;
    fr.fr_fp <- fp;
    fr.fr_pc <- 0;
    m.sp <- fp + nlocals;
    m.depth <- m.depth + 1

  (** Deep-copy: new stack (locals included) and frames; memories of the
      root instance are copied too (fork semantics). Instances other than
      the root share structure except for memory 0 which is replaced.

      Note: a forked child gets a full copy of the root instance so its
      globals and memory diverge from the parent, matching native fork. *)
  let clone (m : t) : t =
    (* Identity-keyed maps so shared memories/instances stay shared in the
       clone exactly as they were in the original. *)
    let mem_map : (Memory.t * Memory.t) list ref = ref [] in
    let clone_mem mem =
      match List.find_opt (fun (a, _) -> a == mem) !mem_map with
      | Some (_, m') -> m'
      | None ->
          let m' = Memory.clone mem in
          mem_map := (mem, m') :: !mem_map;
          m'
    in
    let inst_map : (instance * instance) list ref = ref [] in
    let rec clone_inst (i : instance) : instance =
      match List.find_opt (fun (a, _) -> a == i) !inst_map with
      | Some (_, i') -> i'
      | None ->
          let i' =
            {
              i with
              i_funcs = [||];
              i_memories = Array.map clone_mem i.i_memories;
              i_tables =
                Array.map
                  (fun (t : Table.t) ->
                    { t with Table.elems = Array.copy t.Table.elems })
                  i.i_tables;
              i_globals =
                Array.map
                  (fun g -> Global.create g.Global.mut (Global.get g))
                  i.i_globals;
              i_exports = Hashtbl.create 8;
            }
          in
          inst_map := (i, i') :: !inst_map;
          i'.i_funcs <-
            Array.map
              (function
                | Wasm_func w -> Wasm_func { w with wf_inst = clone_inst w.wf_inst }
                | (Host_func _ | Host_slot _) as h -> h)
              i.i_funcs;
          Hashtbl.iter
            (fun k v ->
              let v' =
                match v with
                | E_func (Wasm_func w) ->
                    E_func (Wasm_func { w with wf_inst = clone_inst w.wf_inst })
                | E_func ((Host_func _ | Host_slot _) as h) -> E_func h
                | E_memory mem -> E_memory (clone_mem mem)
                | E_table t -> E_table t
                | E_global g -> E_global g
              in
              Hashtbl.replace i'.i_exports k v')
            i.i_exports;
          i'
    in
    let root = clone_inst m.m_inst in
    (* Live frames get fresh records (locals live in the copied stack, so
       the child never sees parent mutations); spare slots get fresh
       placeholders so the two machines never share a reusable frame
       record. *)
    let frames =
      Array.init (Array.length m.frames) (fun i ->
          if i < m.depth then
            let fr = m.frames.(i) in
            { fr with fr_inst = clone_inst fr.fr_inst }
          else null_frame ())
    in
    {
      stack = Bytes.copy m.stack;
      sp = m.sp;
      frames;
      depth = m.depth;
      m_inst = root;
      hot_steps = m.hot_steps;
      hot_fused = m.hot_fused;
      steps = m.steps;
      fused = m.fused;
      poll_hook = m.poll_hook;
      m_attn = m.m_attn;
      prof_hook = m.prof_hook;
      m_pid = m.m_pid;
    }
end

(** Default memory of the machine's root instance. *)
let memory0 (m : machine) =
  if Array.length m.m_inst.i_memories = 0 then trap "no memory";
  m.m_inst.i_memories.(0)

let export_opt inst name = Hashtbl.find_opt inst.i_exports name

let exported_func inst name =
  match export_opt inst name with
  | Some (E_func f) -> f
  | _ -> trap "no exported function %s in %s" name inst.i_name
