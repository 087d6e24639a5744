(** Seeded inputs for the three workloads. Everything a workload feeds the
    engine is made here from the workload seed, together with the output
    the benchmark expects, so the oracle never reads the program's own
    answer back as ground truth. *)

let rng ~seed ~salt = Random.State.make [| 0x5745; seed; salt |]

let shuffle st (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pick st (xs : 'a array) = xs.(Random.State.int st (Array.length xs))

(* ------------------------------------------------------------------ *)
(* apps: the calc script                                                *)
(* ------------------------------------------------------------------ *)

(** A calc script of [iters] loop trips whose coefficients come from the
    seed, and the line calc must print. The loop count is fixed so every
    seed costs the same; values stay below 2^31 so MiniC's i32 arithmetic
    and OCaml's agree without wrapping. *)
let calc_script ~seed ~iters : string * string =
  let st = rng ~seed ~salt:1 in
  let a = 2 + Random.State.int st 30
  and b = 1 + Random.State.int st 50
  and c = Random.State.int st 100
  and m = pick st [| 10007; 30011; 65521 |] in
  let s = ref 0 in
  for i = 0 to iters - 1 do
    s := ((!s * a) + (i * b) + c) mod m
  done;
  ( Printf.sprintf
      "i = 0; s = 0; while i < %d do s = (s * %d + i * %d + %d) %% %d; i = i + \
       1 end; print s; print >s"
      iters a b c m,
    string_of_int !s ^ "\n" )

(* ------------------------------------------------------------------ *)
(* syscall: the straight-line WALI call body                            *)
(* ------------------------------------------------------------------ *)

type call =
  | Pipe_rw of int (* write then read [len] bytes through a pipe *)
  | Pread of int * int (* len, file offset *)
  | Pwrite of int * int
  | Open_close (* open + close of a 4-deep path *)
  | Fstat
  | Lseek of int
  | Mmap_munmap (* one anonymous page *)
  | Getpid
  | Clock_gettime

type family = {
  f_name : string;
  f_suite_calls : int;
      (* dynamic calls of the family's syscalls in one run of the 13-app
         suite at its suite argv (Strace profile) *)
  f_unit : int; (* WALI calls per draw *)
  f_make : Random.State.t -> call;
}

let body_calls = 128

(* Each family is guaranteed [floor_calls] calls so the rare ones still
   appear; the rest of the body follows the suite's frequencies. *)
let floor_calls = 4

let families : family list =
  let len st = pick st [| 8; 16; 32; 64 |] in
  let off st = 8 * Random.State.int st 500 in
  [
    { f_name = "pipe"; f_suite_calls = 2319; f_unit = 2;
      f_make = (fun st -> Pipe_rw (len st)) };
    { f_name = "pread64"; f_suite_calls = 600; f_unit = 1;
      f_make = (fun st -> let l = len st in Pread (l, off st)) };
    { f_name = "pwrite64"; f_suite_calls = 450; f_unit = 1;
      f_make = (fun st -> let l = len st in Pwrite (l, off st)) };
    { f_name = "open_close"; f_suite_calls = 35; f_unit = 2;
      f_make = (fun _ -> Open_close) };
    { f_name = "fstat"; f_suite_calls = 0; f_unit = 1;
      f_make = (fun _ -> Fstat) };
    { f_name = "lseek"; f_suite_calls = 2; f_unit = 1;
      f_make = (fun st -> Lseek (Random.State.int st 4096)) };
    { f_name = "mmap_munmap"; f_suite_calls = 19; f_unit = 2;
      f_make = (fun _ -> Mmap_munmap) };
    { f_name = "getpid"; f_suite_calls = 3; f_unit = 1;
      f_make = (fun _ -> Getpid) };
    { f_name = "clock_gettime"; f_suite_calls = 0; f_unit = 1;
      f_make = (fun _ -> Clock_gettime) };
  ]

(** Draws per family: the floor, plus the remaining calls apportioned by
    suite frequency with largest remainders (in whole draws). The result
    does not depend on the seed, so every seed's body costs the same. *)
let quotas () : (family * int) list =
  let floor_draws f = (floor_calls + f.f_unit - 1) / f.f_unit in
  let base = List.fold_left (fun a f -> a + (floor_draws f * f.f_unit)) 0 families in
  let total = List.fold_left (fun a f -> a + f.f_suite_calls) 0 families in
  (* each family's share of the spare calls, in draws *)
  let share f =
    float_of_int ((body_calls - base) * f.f_suite_calls)
    /. float_of_int (total * f.f_unit)
  in
  let whole = List.map (fun f -> (f, floor_draws f + truncate (share f))) families in
  let left = body_calls - List.fold_left (fun a (f, d) -> a + (d * f.f_unit)) 0 whole in
  let rem f = share f -. Float.of_int (truncate (share f)) in
  let _, extra =
    List.fold_left
      (fun (left, extra) f ->
        if f.f_unit <= left then (left - f.f_unit, f :: extra) else (left, extra))
      (left, [])
      (List.stable_sort (fun a b -> compare (rem b) (rem a)) families)
  in
  List.map (fun (f, d) -> (f, if List.memq f extra then d + 1 else d)) whole

(** The family a call belongs to. *)
let kind = function
  | Pipe_rw _ -> "pipe"
  | Pread _ -> "pread64"
  | Pwrite _ -> "pwrite64"
  | Open_close -> "open_close"
  | Fstat -> "fstat"
  | Lseek _ -> "lseek"
  | Mmap_munmap -> "mmap_munmap"
  | Getpid -> "getpid"
  | Clock_gettime -> "clock_gettime"

let wali_calls = function
  | Pipe_rw _ | Open_close | Mmap_munmap -> 2
  | Pread _ | Pwrite _ | Fstat | Lseek _ | Getpid | Clock_gettime -> 1

(** The seeded body: the quota multiset in a seeded order with seeded
    lengths and offsets. *)
let body ~seed : call list =
  let st = rng ~seed ~salt:2 in
  quotas ()
  |> List.concat_map (fun (f, n) -> List.init n (fun _ -> f.f_make st))
  |> shuffle st

(* Guest fd layout: 0-2 console, 3/4 the pipe, 5 the data file, so the
   open in the loop always gets the lowest free fd, 6. *)
let data_path = "/tmp/wb/a/f"
let open_fd = 6

(** What the guest adds to its result sum for one call. mmap and getpid
    return values the benchmark does not predict (an address, a pid), so
    the guest adds 1 for a success there. *)
let expected_sum = function
  | Pipe_rw n -> n + n
  | Pread (n, _) | Pwrite (n, _) -> n
  | Open_close -> open_fd
  | Fstat | Clock_gettime -> 0
  | Lseek off -> off
  | Mmap_munmap -> 1
  | Getpid -> 1

let c_stmt = function
  | Pipe_rw n ->
      Printf.sprintf
        "s = s + syscall(\"write\", q, buf, %d);\n\
        \    s = s + syscall(\"read\", p, buf, %d);" n n
  | Pread (n, off) -> Printf.sprintf "s = s + syscall(\"pread64\", df, buf, %d, %d);" n off
  | Pwrite (n, off) -> Printf.sprintf "s = s + syscall(\"pwrite64\", df, buf, %d, %d);" n off
  | Open_close ->
      Printf.sprintf
        "o = syscall(\"open\", path, 0, 0);\n    s = s + o + syscall(\"close\", o);"
  | Fstat -> "s = s + syscall(\"fstat\", df, st);"
  | Lseek off -> Printf.sprintf "s = s + syscall(\"lseek\", df, %d, 0);" off
  | Mmap_munmap ->
      "a = syscall(\"mmap\", 0, 4096, 3, 34, -1, 0);\n\
      \    s = s + (a > 0) + syscall(\"munmap\", a, 4096);"
  | Getpid -> "s = s + (syscall(\"getpid\") > 0);"
  | Clock_gettime -> "s = s + syscall(\"clock_gettime\", 1, ts);"

(** The guest's MiniC source: set-up, then [argv[1]] trips of the body,
    then one line "CALLS SUM". *)
let guest_source (calls : call list) : string =
  String.concat "\n"
    ([
       "char buf[64];";
       "char st[256];";
       "char ts[16];";
       "int fds[2];";
       "int main(int argc, char **argv) {";
       "  int k = atoi(argv[1]);";
       "  mkdir(\"/tmp/wb\", 493);";
       "  mkdir(\"/tmp/wb/a\", 493);";
       "  pipe(fds);";
       "  int p = fds[0];";
       "  int q = fds[1];";
       Printf.sprintf "  char *path = \"%s\";" data_path;
       "  int df = open(path, 66, 420);";
       "  ftruncate(df, 4096);";
       "  int s = 0;";
       "  int n = 0;";
       "  int o = 0;";
       "  int a = 0;";
       "  for (int i = 0; i < k; i = i + 1) {";
     ]
    @ List.map (fun c -> "    " ^ c_stmt c) calls
    @ [
        Printf.sprintf "    n = n + %d;"
          (List.fold_left (fun acc c -> acc + wali_calls c) 0 calls);
        "  }";
        "  printi(n); print(\" \"); printi(s); print(\"\\n\");";
        "  return 0;";
        "}";
        "";
      ])

(** The line the guest must print after [trips] trips, computed from the
    body alone. *)
let expected_line (calls : call list) ~trips : string =
  let per_trip = List.fold_left (fun acc c -> acc + expected_sum c) 0 calls in
  let n = trips * List.fold_left (fun acc c -> acc + wali_calls c) 0 calls in
  let s = Int32.mul (Int32.of_int trips) (Int32.of_int per_trip) in
  Printf.sprintf "%d %ld\n" n s

(** Exact dynamic counts of the body's syscalls that the guest's set-up,
    libc start-up and final print never make, so a run must show exactly
    these per-syscall counts at the WALI boundary. *)
let expected_counts (calls : call list) ~trips : (string * int) list =
  let tbl = Hashtbl.create 16 in
  let add name = Hashtbl.replace tbl name (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0) in
  List.iter
    (function
      | Pipe_rw _ -> add "read"
      | Pread _ -> add "pread64"
      | Pwrite _ -> add "pwrite64"
      | Open_close -> add "close"
      | Fstat -> add "fstat"
      | Lseek _ -> add "lseek"
      | Mmap_munmap -> add "munmap"
      | Getpid -> add "getpid"
      | Clock_gettime -> add "clock_gettime")
    calls;
  Hashtbl.fold (fun k v acc -> (k, v * trips) :: acc) tbl []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* coldstart: never-seen binaries                                       *)
(* ------------------------------------------------------------------ *)

let uleb (n : int) : string =
  let b = Buffer.create 5 in
  let rec go n =
    let byte = n land 0x7f and rest = n lsr 7 in
    if rest = 0 then Buffer.add_char b (Char.chr byte)
    else begin
      Buffer.add_char b (Char.chr (byte lor 0x80));
      go rest
    end
  in
  go n;
  Buffer.contents b

(** [binary] with one more custom section carrying [nonce]. The decoder
    skips custom sections it does not know, so the module runs as before,
    but its digest is new and it misses the engine's compile cache. *)
let with_nonce (binary : string) (nonce : string) : string =
  let name = "perfbench.nonce" in
  let payload = uleb (String.length name) ^ name ^ nonce in
  binary ^ "\x00" ^ uleb (String.length payload) ^ payload
