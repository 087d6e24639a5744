(** The module load fuzzer. Seeded bit-flip, truncation, splice and
    forged-count mutants of the suite's binaries go through [Binary.decode],
    [Code.compile_module] and [Link.instantiate] against the WALI import
    resolver, and are never executed: there is no step budget to bound a
    mutant's run. Each must load, or be rejected with
    [Binary.Decode_error], [Code.Invalid] or [Link.Link_error]; any other
    exception is a finding. A valid mutant that asks for more memory or
    table than the fuzzer's budget is counted and not instantiated. A
    mutant is a function of its seed and index alone, so a finding
    reproduces from those two numbers. *)

open Wasm

type finding = {
  fd_seed : int;
  fd_index : int;
  fd_kind : string; (* bit-flip, truncation, splice or count *)
  fd_app : string; (* the binary the mutant starts from *)
  fd_exn : string;
  fd_size : int; (* the mutant's length in bytes *)
}

type summary = {
  s_loaded : int;
  s_decode : int; (* rejected by Binary.decode *)
  s_invalid : int; (* rejected by validation *)
  s_link : int; (* rejected at instantiation *)
  s_over_budget : int; (* valid, but not instantiated: see [over_budget] *)
  s_findings : finding list; (* in mutant order *)
}

(* What one mutant may instantiate: a flipped bit in a limit must not
   make the fuzzer zero-fill gigabytes. The suite's binaries start with
   a few pages and one small table. *)
let over_budget (m : Ast.module_) =
  Array.exists (fun l -> l.Types.lim_min > 256) m.Ast.memories
  || Array.exists (fun l -> l.Types.lim_min > 1 lsl 16) m.Ast.tables

let suite_binaries () =
  Array.of_list (List.map (fun a -> (a.Suite.a_name, Suite.binary_of a)) Suite.all)

let leb n =
  let b = Buffer.create 5 in
  Binary.E.u32 b n;
  Buffer.contents b

(* Each section of a well-formed binary that opens with a vector count:
   the offsets of its size field, of the end of its count, and of its
   end. *)
let vector_sections src =
  let d = Binary.D.make src in
  d.Binary.D.pos <- 8;
  let rec go acc =
    if d.Binary.D.pos >= String.length src then List.rev acc
    else begin
      let id = Binary.D.byte d in
      let at = d.Binary.D.pos in
      let size = Binary.D.u32 d in
      let stop = d.Binary.D.pos + size in
      let acc =
        if id = 0 || id = 8 || size = 0 then acc
        else (ignore (Binary.D.u32 d); (at, d.Binary.D.pos, stop) :: acc)
      in
      d.Binary.D.pos <- stop;
      go acc
    end
  in
  go []

(** Mutant [index] of run [seed] over [bins] (name, bytes): its kind,
    the name of the binary it starts from, and its bytes. The 8-byte
    header is kept, so every mutant gets past the magic and the version
    into the sections. *)
let mutant bins ~seed ~index =
  let rng = Random.State.make [| seed; index |] in
  let pick () = bins.(Random.State.int rng (Array.length bins)) in
  let app, src = pick () in
  let pos s = 8 + Random.State.int rng (String.length s - 8) in
  match Random.State.int rng 4 with
  | 0 ->
      let b = Bytes.of_string src in
      for _ = 1 to 1 + Random.State.int rng 4 do
        let p = pos src in
        let bit = 1 lsl Random.State.int rng 8 in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor bit))
      done;
      ("bit-flip", app, Bytes.to_string b)
  | 1 -> ("truncation", app, String.sub src 0 (pos src))
  | 2 ->
      (* a prefix of one binary joined to a suffix of another (or of
         itself), both cut at arbitrary bytes *)
      let _, other = pick () in
      let cut = pos src and from = pos other in
      ("splice", app, String.sub src 0 cut ^ String.sub other from (String.length other - from))
  | _ ->
      (* a section's vector count rewritten as a 5-byte LEB128 of at
         least 2^31, with the section's size fixed up to match: only the
         decoder's bound on counts stands between it and an allocation
         of that many elements *)
      let secs = vector_sections src in
      let at, counted, stop = List.nth secs (Random.State.int rng (List.length secs)) in
      let body =
        leb (0x80000000 + Random.State.full_int rng 0x80000000)
        ^ String.sub src counted (stop - counted)
      in
      let tail = String.sub src stop (String.length src - stop) in
      ("count", app, String.sub src 0 at ^ leb (String.length body) ^ body ^ tail)

(** Load mutants [0, count) of run [seed]. *)
let run ~seed ~count : summary =
  let bins = suite_binaries () in
  let resolver = Wali.Interface.resolver (Wali.Engine.create (Kernel.Task.boot ())) in
  let loaded = ref 0 and decode = ref 0 and invalid = ref 0 and link = ref 0 in
  let over = ref 0 and findings = ref [] in
  for index = 0 to count - 1 do
    let kind, app, binary = mutant bins ~seed ~index in
    match
      let cm = Code.compile_module ~poll:Code.Poll_loops (Binary.decode binary) in
      if over_budget cm.Code.cm_module then incr over
      else begin
        ignore (Link.instantiate resolver cm);
        incr loaded
      end
    with
    | () -> ()
    | exception Binary.Decode_error _ -> incr decode
    | exception Code.Invalid _ -> incr invalid
    | exception Link.Link_error _ -> incr link
    | exception e ->
        findings :=
          { fd_seed = seed; fd_index = index; fd_kind = kind; fd_app = app;
            fd_exn = Printexc.to_string e; fd_size = String.length binary }
          :: !findings
  done;
  { s_loaded = !loaded; s_decode = !decode; s_invalid = !invalid; s_link = !link;
    s_over_budget = !over; s_findings = List.rev !findings }

let pp_finding f =
  Printf.sprintf "seed %d mutant %d (%s of %s, %d bytes): %s" f.fd_seed f.fd_index
    f.fd_kind f.fd_app f.fd_size f.fd_exn

let pp_summary s =
  Printf.sprintf
    "%d loaded, %d decode errors, %d invalid, %d link errors, %d over budget, %d findings"
    s.s_loaded s.s_decode s.s_invalid s.s_link s.s_over_budget (List.length s.s_findings)
