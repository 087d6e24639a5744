(** The metrics registry: per-syscall aggregation (calls, errors, time,
    log2 latency histogram) plus the kernel-internal counter block.

    There is exactly one per-syscall aggregation in the system — Strace
    is a thin consumer of this registry, and the observability sink dumps
    it — so the WALI boundary is counted once, whoever is looking. *)

type syscall_stats = {
  mutable calls : int;
  mutable errors : int;
  mutable ns : int; (* total time below the WALI boundary *)
  hist : Hist.t; (* latency distribution, ns *)
}

type t = {
  tbl : (string, syscall_stats) Hashtbl.t;
  mutable total : int; (* total calls across all syscalls *)
}

let create () = { tbl = Hashtbl.create 64; total = 0 }

let stats_of t name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s
  | None ->
      let s = { calls = 0; errors = 0; ns = 0; hist = Hist.create () } in
      Hashtbl.replace t.tbl name s;
      s

(** Count one call in [s], a record of [t] from [stats_of]: the WALI
    crossing's update, on unboxed ints, which allocates nothing. *)
let record_stats t s ~(result : int) ~(ns : int) =
  s.calls <- s.calls + 1;
  if result < 0 then s.errors <- s.errors + 1;
  if ns > 0 then s.ns <- s.ns + ns;
  t.total <- t.total + 1;
  Hist.record_int s.hist ns

(** Count one call of [name], on the int64 values a trace carries. *)
let record t ~name ~(result : int64) ~(ns : int64) =
  record_stats t (stats_of t name) ~result:(Int64.to_int result) ~ns:(Int64.to_int ns)

let find t name = Hashtbl.find_opt t.tbl name

let fold f t acc = Hashtbl.fold f t.tbl acc

let unique t = Hashtbl.length t.tbl
let total_calls t = t.total

let total_errors t = fold (fun _ s acc -> acc + s.errors) t 0
let total_ns t = Int64.of_int (fold (fun _ s acc -> acc + s.ns) t 0)

(** [(name, stats)] sorted by name (deterministic dump order). *)
let by_name t : (string * syscall_stats) list =
  fold (fun name s acc -> (name, s) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Deterministic row orderings shared by every consumer that renders
   per-syscall tables (Strace profiles, the walitop report, waliperf).
   Both break remaining ties on the syscall name, never on hashtable
   iteration order, so equal-count rows render identically across runs. *)

let cmp_by_calls (an, (a : syscall_stats)) (bn, (b : syscall_stats)) =
  match compare b.calls a.calls with 0 -> compare an bn | c -> c

let cmp_by_time (an, (a : syscall_stats)) (bn, (b : syscall_stats)) =
  let c = compare b.ns a.ns in
  if c <> 0 then c
  else match compare b.calls a.calls with 0 -> compare an bn | c -> c

(** [(name, stats)] by call count descending, then name. *)
let by_calls t : (string * syscall_stats) list =
  fold (fun name s acc -> (name, s) :: acc) t [] |> List.sort cmp_by_calls

(** [(name, stats)] by total time descending, then calls, then name. *)
let by_time t : (string * syscall_stats) list =
  fold (fun name s acc -> (name, s) :: acc) t [] |> List.sort cmp_by_time

(* ------------------------------------------------------------------ *)
(* Kernel-internal counters                                             *)
(* ------------------------------------------------------------------ *)

(** Counters owned by the simulated kernel ([Task.kernel] carries one of
    these from boot): always on, incremented inline by the kernel paths
    themselves, read out by the sink at dump time. *)
type kstats = {
  vfs : (string, int ref) Hashtbl.t; (* VFS operations by type *)
  mutable fd_high_water : int; (* highest fd slot ever installed, +1 *)
  mutable futex_waits : int;
  mutable futex_wakes : int; (* waiters actually woken *)
  mutable sig_queued : int;
  mutable sig_delivered : int;
  mutable pipe_bytes : int64; (* bytes moved through pipes/FIFOs *)
  mutable sock_bytes : int64; (* bytes moved through sockets *)
  mutable dcache_hits : int64; (* path resolutions served from the dentry cache *)
  mutable dcache_misses : int64; (* resolutions that walked the tree *)
}

let kstats_create () =
  {
    vfs = Hashtbl.create 16;
    fd_high_water = 0;
    futex_waits = 0;
    futex_wakes = 0;
    sig_queued = 0;
    sig_delivered = 0;
    pipe_bytes = 0L;
    sock_bytes = 0L;
    dcache_hits = 0L;
    dcache_misses = 0L;
  }

let vfs_op ks op =
  match Hashtbl.find_opt ks.vfs op with
  | Some r -> incr r
  | None -> Hashtbl.replace ks.vfs op (ref 1)

let note_fd ks fd = if fd + 1 > ks.fd_high_water then ks.fd_high_water <- fd + 1

(** VFS op counts sorted by op name. *)
let vfs_by_name ks : (string * int) list =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) ks.vfs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
