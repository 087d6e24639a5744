(** The versioned binary trace format for WALI record/replay.

    A trace captures everything that crosses the thin interface during
    one run: every host call (name, args, result, the bytes the kernel
    wrote into linear memory, the memory size afterwards), every virtual
    signal delivery (positioned by a per-machine safepoint-poll counter),
    and every process exit. Because the WALI boundary is the complete
    nondeterminism surface (paper §3, PAPERS.md: Wasm-R3), this log plus
    the original .wasm image is a hermetic, deterministically replayable
    artifact.

    Encoding: an 8-byte magic, a version varint, a header, then a stream
    of tagged records using LEB128 varints (zigzag for signed values)
    with syscall names interned via inline definition records, closed by
    a trailer that carries the event count and the final exit status.
    Decoding a truncated, corrupt or wrong-version stream raises
    [Corrupt] / [Bad_version] — never returns garbage. *)

(* ---- trace model ---- *)

(** Bytes the kernel wrote into guest linear memory during one call.
    [R_zeros] is the run-length form the reducer uses for zero fills
    (mmap, brk and fresh-page traffic is mostly zeros). *)
type region =
  | R_bytes of int * string (* addr, raw bytes *)
  | R_zeros of int * int (* addr, length of zero fill *)

type syscall = {
  sc_pid : int; (* machine pid = kernel task tid *)
  sc_name : string;
  sc_args : int64 array;
  sc_result : int64; (* raw kernel convention: -errno on failure *)
  sc_pages : int; (* linear memory size (pages) after the call *)
  sc_regions : region list;
}

(** A virtual signal delivery. [sg_poll] is the value of the per-machine
    counted safepoint-poll counter at the moment of delivery — replay
    re-injects the delivery when the same machine reaches the same
    counter value. [sg_status] is the packed wait status for fatal
    dispositions, [None] when a registered handler ran. *)
type signal = {
  sg_pid : int;
  sg_poll : int;
  sg_signo : int;
  sg_status : int option;
}

type exit_ev = { ex_pid : int; ex_status : int (* packed wait status *) }

type event = E_syscall of syscall | E_signal of signal | E_exit of exit_ev

(** The pid whose record an event is. *)
let pid_of = function
  | E_syscall { sc_pid = pid; _ } | E_signal { sg_pid = pid; _ } | E_exit { ex_pid = pid; _ } ->
      pid

type header = {
  h_app : string; (* informational: suite app name, or "" *)
  h_argv : string list;
  h_env : string list;
  h_digest : string; (* MD5 of the recorded .wasm image *)
  h_poll : string; (* safepoint scheme ("loops", …): delivery coordinates
                      only make sense under the same compiled poll sites *)
}

let poll_scheme_name : Wasm.Code.poll_scheme -> string = function
  | Wasm.Code.Poll_none -> "none"
  | Wasm.Code.Poll_loops -> "loops"
  | Wasm.Code.Poll_funcs -> "funcs"
  | Wasm.Code.Poll_every -> "every"

let poll_scheme_of_name : string -> Wasm.Code.poll_scheme option = function
  | "none" -> Some Wasm.Code.Poll_none
  | "loops" -> Some Wasm.Code.Poll_loops
  | "funcs" -> Some Wasm.Code.Poll_funcs
  | "every" -> Some Wasm.Code.Poll_every
  | _ -> None

type t = {
  tr_header : header;
  tr_events : event array;
  tr_status : int; (* packed wait status of the initial process *)
}

let magic = "WALITRC0"
let version = 1

exception Corrupt of string
exception Bad_version of int

(* ---- primitive encoders ---- *)

let put_u64 b (v : int64) =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let put_u b (n : int) =
  if n < 0 then invalid_arg "Trace.put_u: negative";
  put_u64 b (Int64.of_int n)

(* zigzag: small-magnitude negatives stay short *)
let put_i64 b (v : int64) =
  put_u64 b (Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63))

let put_i b (n : int) = put_i64 b (Int64.of_int n)

let put_str b s =
  put_u b (String.length s);
  Buffer.add_string b s

(* ---- primitive decoders ---- *)

type cursor = { src : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.src then raise (Corrupt "truncated trace")

let get_u64 c : int64 =
  let v = ref 0L and shift = ref 0 and continue = ref true in
  while !continue do
    need c 1;
    let byte = Char.code c.src.[c.pos] in
    c.pos <- c.pos + 1;
    v :=
      Int64.logor !v
        (Int64.shift_left (Int64.of_int (byte land 0x7F)) !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
    else if !shift > 63 then raise (Corrupt "overlong varint")
  done;
  !v

let get_u c : int =
  let v = get_u64 c in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Corrupt "varint out of int range");
  Int64.to_int v

let get_i64 c : int64 =
  let v = get_u64 c in
  Int64.logxor
    (Int64.shift_right_logical v 1)
    (Int64.neg (Int64.logand v 1L))

let get_i c : int = Int64.to_int (get_i64 c)

let get_str c : string =
  let n = get_u c in
  need c n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

(* ---- record tags ---- *)

let tag_name = 0 (* intern a syscall name; ids are sequential *)
let tag_syscall = 1
let tag_signal = 2
let tag_exit = 3
let tag_trailer = 9

(* ---- encode ---- *)

let encode (t : t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_u b version;
  let h = t.tr_header in
  put_str b h.h_app;
  put_u b (List.length h.h_argv);
  List.iter (put_str b) h.h_argv;
  put_u b (List.length h.h_env);
  List.iter (put_str b) h.h_env;
  put_str b h.h_digest;
  put_str b h.h_poll;
  let names = Hashtbl.create 64 in
  let name_id n =
    match Hashtbl.find_opt names n with
    | Some id -> id
    | None ->
        let id = Hashtbl.length names in
        Hashtbl.add names n id;
        put_u b tag_name;
        put_str b n;
        id
  in
  let put_region = function
    | R_bytes (addr, s) ->
        put_u b 0;
        put_u b addr;
        put_str b s
    | R_zeros (addr, n) ->
        put_u b 1;
        put_u b addr;
        put_u b n
  in
  Array.iter
    (function
      | E_syscall sc ->
          let id = name_id sc.sc_name in
          put_u b tag_syscall;
          put_u b id;
          put_u b sc.sc_pid;
          put_u b (Array.length sc.sc_args);
          Array.iter (put_i64 b) sc.sc_args;
          put_i64 b sc.sc_result;
          put_u b sc.sc_pages;
          put_u b (List.length sc.sc_regions);
          List.iter put_region sc.sc_regions
      | E_signal sg ->
          put_u b tag_signal;
          put_u b sg.sg_pid;
          put_u b sg.sg_poll;
          put_u b sg.sg_signo;
          (match sg.sg_status with
          | None -> put_u b 0
          | Some st ->
              put_u b 1;
              put_i b st)
      | E_exit ex ->
          put_u b tag_exit;
          put_u b ex.ex_pid;
          put_i b ex.ex_status)
    t.tr_events;
  put_u b tag_trailer;
  put_u b (Array.length t.tr_events);
  put_i b t.tr_status;
  Buffer.contents b

(* ---- decode ---- *)

let decode (s : string) : t =
  let c = { src = s; pos = 0 } in
  need c (String.length magic);
  let m = String.sub s 0 (String.length magic) in
  if m <> magic then raise (Corrupt "bad magic");
  c.pos <- String.length magic;
  let v = get_u c in
  if v <> version then raise (Bad_version v);
  let h_app = get_str c in
  let get_list () = List.init (get_u c) (fun _ -> get_str c) in
  let h_argv = get_list () in
  let h_env = get_list () in
  let h_digest = get_str c in
  let h_poll = get_str c in
  let names : string array ref = ref [||] in
  let events = ref [] in
  let nevents = ref 0 in
  let finished = ref None in
  while !finished = None do
    match get_u c with
    | tag when tag = tag_name -> names := Array.append !names [| get_str c |]
    | tag when tag = tag_syscall ->
        let id = get_u c in
        if id >= Array.length !names then raise (Corrupt "undefined name id");
        let sc_name = !names.(id) in
        let sc_pid = get_u c in
        let nargs = get_u c in
        if nargs > 16 then raise (Corrupt "implausible arg count");
        let sc_args = Array.init nargs (fun _ -> get_i64 c) in
        let sc_result = get_i64 c in
        let sc_pages = get_u c in
        let nregions = get_u c in
        let sc_regions =
          List.init nregions (fun _ ->
              match get_u c with
              | 0 ->
                  let addr = get_u c in
                  R_bytes (addr, get_str c)
              | 1 ->
                  let addr = get_u c in
                  R_zeros (addr, get_u c)
              | k -> raise (Corrupt (Printf.sprintf "bad region kind %d" k)))
        in
        events :=
          E_syscall { sc_pid; sc_name; sc_args; sc_result; sc_pages; sc_regions }
          :: !events;
        incr nevents
    | tag when tag = tag_signal ->
        let sg_pid = get_u c in
        let sg_poll = get_u c in
        let sg_signo = get_u c in
        let sg_status =
          match get_u c with
          | 0 -> None
          | 1 -> Some (get_i c)
          | k -> raise (Corrupt (Printf.sprintf "bad signal status tag %d" k))
        in
        events := E_signal { sg_pid; sg_poll; sg_signo; sg_status } :: !events;
        incr nevents
    | tag when tag = tag_exit ->
        let ex_pid = get_u c in
        let ex_status = get_i c in
        events := E_exit { ex_pid; ex_status } :: !events;
        incr nevents
    | tag when tag = tag_trailer ->
        let count = get_u c in
        if count <> !nevents then raise (Corrupt "trailer event count mismatch");
        finished := Some (get_i c)
    | tag -> raise (Corrupt (Printf.sprintf "unknown record tag %d" tag))
  done;
  if c.pos <> String.length s then raise (Corrupt "trailing bytes after trailer");
  let tr_status = Option.get !finished in
  {
    tr_header = { h_app; h_argv; h_env; h_digest; h_poll };
    tr_events = Array.of_list (List.rev !events);
    tr_status;
  }

(* ---- file helpers ---- *)

let save (file : string) (t : t) : unit =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (encode t))

let load (file : string) : t =
  decode (In_channel.with_open_bin file In_channel.input_all)

(* ---- pretty-printing (for divergence reports and `walireplay report`) *)

let region_len = function
  | R_bytes (_, s) -> String.length s
  | R_zeros (_, n) -> n

let region_addr = function R_bytes (a, _) -> a | R_zeros (a, _) -> a

let pp_args (args : int64 array) : string =
  String.concat ", " (Array.to_list (Array.map Int64.to_string args))

let pp_event = function
  | E_syscall sc ->
      Printf.sprintf "[pid %d] %s(%s) = %Ld (%d region%s, %d bytes)" sc.sc_pid
        sc.sc_name (pp_args sc.sc_args) sc.sc_result
        (List.length sc.sc_regions)
        (if List.length sc.sc_regions = 1 then "" else "s")
        (List.fold_left (fun a r -> a + region_len r) 0 sc.sc_regions)
  | E_signal sg ->
      Printf.sprintf "[pid %d] signal %d at safepoint %d%s" sg.sg_pid
        sg.sg_signo sg.sg_poll
        (match sg.sg_status with
        | None -> " (handler)"
        | Some st -> Printf.sprintf " (fatal, status 0x%x)" st)
  | E_exit ex -> Printf.sprintf "[pid %d] exit, status 0x%x" ex.ex_pid ex.ex_status
