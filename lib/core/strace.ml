(** Syscall tracing and profiling (the WALI_VERBOSE analogue, and the
    data source for the Fig 2 syscall profile).

    The per-syscall aggregation itself lives in {!Observe.Metrics} — this
    module is a thin view over one registry that adds the verbose
    strace-style line rendering and the frequency-ordered profile views.
    When an engine has an observability sink, its tracer is a view over
    the sink's registry (see [Engine.create]), so each WALI crossing
    updates exactly one registry, whoever is looking. A verbose tracer
    logs its lines through the engine's hook ([Engine.verbose_hook]). *)

type t = {
  reg : Observe.Metrics.t;
  mutable verbose : bool;
  mutable log : (string -> unit) option;
}

let create ?(verbose = false) () =
  { reg = Observe.Metrics.create (); verbose; log = None }

(** A tracer over an existing registry (an observability sink's). *)
let of_metrics ?(verbose = false) reg = { reg; verbose; log = None }

let metrics t = t.reg

(* Values at or above 64 KiB are almost always addresses, buffer lengths
   don't reach them in practice, and flag words stay small — render those
   in hex so pointers are readable. The cutoff is fixed, keeping the
   format deterministic. *)
let pp_arg (v : int64) : string =
  if Int64.compare v 0x10000L >= 0 then Printf.sprintf "0x%Lx" v
  else Int64.to_string v

(** Log the strace line of one crossing of [name]: its [arity] i64
    arguments ([arg i] is the [i]-th) and its result. *)
let print t ~pid ~name ~arity (arg : int -> int64) ~(result : int64) =
  let line =
    Printf.sprintf "[%d] %s(%s) = %Ld" pid name
      (String.concat ", " (List.init arity (fun i -> pp_arg (arg i))))
      result
  in
  match t.log with Some f -> f line | None -> prerr_endline line

(** Count one crossing of [name] in the registry, and log its line when
    the tracer is verbose. *)
let note t ~pid ~name ~(args : int64 array) ~(result : int64) ~ns =
  Observe.Metrics.record_stats t.reg (Observe.Metrics.stats_of t.reg name) ~result ~ns;
  if t.verbose then print t ~pid ~name ~arity:(Array.length args) (Array.get args) ~result

(** (name, calls) sorted by frequency, most frequent first; ties break
    alphabetically so the profile is stable across runs. The comparator
    lives in {!Observe.Metrics} and is shared with the walitop report
    and waliperf, so every per-syscall table agrees on row order. *)
let profile t : (string * int) list =
  List.map
    (fun (name, (s : Observe.Metrics.syscall_stats)) ->
      (name, s.Observe.Metrics.calls))
    (Observe.Metrics.by_calls t.reg)

(** Per-syscall aggregate beyond the raw call count: error returns and
    total time spent below the WALI boundary. *)
type info = { i_calls : int; i_errors : int; i_ns : int64 }

let info_of (s : Observe.Metrics.syscall_stats) =
  {
    i_calls = s.Observe.Metrics.calls;
    i_errors = s.Observe.Metrics.errors;
    i_ns = s.Observe.Metrics.ns;
  }

(** (name, info) in the same deterministic order as [profile]. *)
let profile_info t : (string * info) list =
  List.map
    (fun (name, s) -> (name, info_of s))
    (Observe.Metrics.by_calls t.reg)

let info t name = Option.map info_of (Observe.Metrics.find t.reg name)
let total_errors t = Observe.Metrics.total_errors t.reg
let unique_syscalls t = Observe.Metrics.unique t.reg
let total_calls t = Observe.Metrics.total_calls t.reg
