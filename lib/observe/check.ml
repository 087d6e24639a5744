(** Structural validators for the three dump formats, used by the suite
    gate ([Perf.Gate]) and the test suite. They check what a viewer would
    choke on: parse errors, unbalanced or misnamed B/E pairs, and
    timestamps running backwards within a lane. *)

type trace_stats = {
  ts_events : int; (* total events, metadata included *)
  ts_pids : int list; (* distinct pids carrying real (non-M) events *)
  ts_max_depth : int; (* deepest B/E nesting seen on any lane *)
}

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let num_field obj name =
  match Option.bind (Json.member name obj) Json.to_num with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "event missing numeric %S" name)

let str_field obj name =
  match Option.bind (Json.member name obj) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "event missing string %S" name)

(** Validate a Chrome trace-event JSON document: it parses, every B has a
    matching same-name E on its (pid, tid) lane with strict stack
    discipline, per-lane timestamps never decrease, and no span is left
    open at the end. *)
let check_trace (s : string) : (trace_stats, string) result =
  let* doc = Json.parse_result s in
  let* events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_arr with
    | Some evs -> Ok evs
    | None -> Error "no traceEvents array"
  in
  let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let pids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let max_depth = ref 0 in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
        let ctx msg = Error (Printf.sprintf "event %d: %s" i msg) in
        let* ph = str_field ev "ph" in
        if ph = "M" then go (i + 1) rest
        else
          let* name = str_field ev "name" in
          let* pid = num_field ev "pid" in
          let* tid = num_field ev "tid" in
          let* ts = num_field ev "ts" in
          let pid = int_of_float pid and tid = int_of_float tid in
          Hashtbl.replace pids pid ();
          let lane = (pid, tid) in
          let prev =
            match Hashtbl.find_opt last_ts lane with Some t -> t | None -> 0.0
          in
          if ts < prev then
            ctx
              (Printf.sprintf "ts %g < %g on lane pid=%d tid=%d" ts prev pid tid)
          else begin
            Hashtbl.replace last_ts lane ts;
            let stk =
              match Hashtbl.find_opt stacks lane with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.replace stacks lane r;
                  r
            in
            match ph with
            | "B" ->
                stk := name :: !stk;
                if List.length !stk > !max_depth then
                  max_depth := List.length !stk;
                go (i + 1) rest
            | "E" -> (
                match !stk with
                | top :: below when top = name ->
                    stk := below;
                    go (i + 1) rest
                | top :: _ ->
                    ctx
                      (Printf.sprintf "E %S does not match open span %S" name
                         top)
                | [] -> ctx (Printf.sprintf "E %S with no open span" name))
            | "i" -> go (i + 1) rest
            | other -> ctx (Printf.sprintf "unsupported phase %S" other)
          end
  in
  let* () = go 0 events in
  let open_spans =
    Hashtbl.fold
      (fun (pid, tid) stk acc ->
        match !stk with
        | [] -> acc
        | top :: _ ->
            Printf.sprintf "pid=%d tid=%d span %S" pid tid top :: acc)
      stacks []
  in
  match open_spans with
  | [] ->
      Ok
        {
          ts_events = List.length events;
          ts_pids = Hashtbl.fold (fun p () acc -> p :: acc) pids [] |> List.sort compare;
          ts_max_depth = !max_depth;
        }
  | errs -> Error ("spans left open at end of trace: " ^ String.concat "; " errs)

(** Validate a metrics dump against schema v1: header fields, a [run]
    block, per-syscall percentile fields, and the kernel counter block
    with at least 6 counters. *)
let check_metrics (s : string) : (unit, string) result =
  let* doc = Json.parse_result s in
  let* schema =
    match Option.bind (Json.member "schema" doc) Json.to_str with
    | Some s -> Ok s
    | None -> Error "missing schema field"
  in
  if schema <> "wali-metrics" then Error ("bad schema: " ^ schema)
  else
    let* version = num_field doc "version" in
    if int_of_float version <> 1 then
      Error (Printf.sprintf "unsupported version %g" version)
    else
      let* run =
        match Json.member "run" doc with
        | Some r -> Ok r
        | None -> Error "missing run block"
      in
      let* _ = num_field run "wall_ns" in
      let* _ = num_field run "instructions" in
      let* syscalls =
        match Option.bind (Json.member "syscalls" doc) Json.to_obj with
        | Some kvs -> Ok kvs
        | None -> Error "missing syscalls object"
      in
      if syscalls = [] then Error "syscalls object is empty"
      else
        let rec each = function
          | [] -> Ok ()
          | (name, stats) :: rest ->
              let req f =
                match num_field stats f with
                | Ok _ -> Ok ()
                | Error _ ->
                    Error (Printf.sprintf "syscall %S missing %S" name f)
              in
              let* () = req "calls" in
              let* () = req "p50_ns" in
              let* () = req "p90_ns" in
              let* () = req "p99_ns" in
              each rest
        in
        let* () = each syscalls in
        let* kernel =
          match Option.bind (Json.member "kernel" doc) Json.to_obj with
          | Some kvs -> Ok kvs
          | None -> Error "missing kernel object"
        in
        (* vfs is a sub-object; the rest are scalar counters *)
        let counters = List.filter (fun (k, _) -> k <> "vfs") kernel in
        if List.length counters < 6 then
          Error
            (Printf.sprintf "kernel block has %d counters, want >= 6"
               (List.length counters))
        else Ok ()

(** Validate a folded profile dump; returns the total weight. *)
let check_folded (s : string) : (int64, string) result = Profile.parse_total s

(** Validate a benchmark-results dump against schema [wali-bench v1]:
    header fields, a non-empty scenario map, and per-metric fields —
    [kind] (counter|wall), [value], [unit]; wall metrics additionally
    carry the sample count [n] and the MAD noise band [mad], which
    deterministic counters must not (a counter with a noise band is a
    mislabelled measurement). *)
let check_bench (s : string) : (unit, string) result =
  let* doc = Json.parse_result s in
  let* schema =
    match Option.bind (Json.member "schema" doc) Json.to_str with
    | Some s -> Ok s
    | None -> Error "missing schema field"
  in
  if schema <> "wali-bench" then Error ("bad schema: " ^ schema)
  else
    let* version = num_field doc "version" in
    if int_of_float version <> 1 then
      Error (Printf.sprintf "unsupported version %g" version)
    else
      let* scenarios =
        match Option.bind (Json.member "scenarios" doc) Json.to_obj with
        | Some kvs -> Ok kvs
        | None -> Error "missing scenarios object"
      in
      if scenarios = [] then Error "scenarios object is empty"
      else
        let check_metric sc name m =
          let ctx msg =
            Error (Printf.sprintf "scenario %S metric %S: %s" sc name msg)
          in
          let* kind =
            match Option.bind (Json.member "kind" m) Json.to_str with
            | Some k -> Ok k
            | None -> ctx "missing kind"
          in
          let* _ =
            match num_field m "value" with Ok v -> Ok v | Error e -> ctx e
          in
          let* _ =
            match Option.bind (Json.member "unit" m) Json.to_str with
            | Some u -> Ok u
            | None -> ctx "missing unit"
          in
          match kind with
          | "counter" ->
              if Json.member "mad" m <> None then
                ctx "counter carries a noise band"
              else Ok ()
          | "wall" ->
              let* n =
                match num_field m "n" with Ok v -> Ok v | Error e -> ctx e
              in
              let* mad =
                match num_field m "mad" with Ok v -> Ok v | Error e -> ctx e
              in
              if n < 1.0 then ctx "wall metric with n < 1"
              else if mad < 0.0 then ctx "negative noise band"
              else Ok ()
          | k -> ctx (Printf.sprintf "unknown kind %S" k)
        in
        let rec each_scenario = function
          | [] -> Ok ()
          | (sc, body) :: rest ->
              let* metrics =
                match Option.bind (Json.member "metrics" body) Json.to_obj with
                | Some kvs -> Ok kvs
                | None ->
                    Error (Printf.sprintf "scenario %S missing metrics" sc)
              in
              if metrics = [] then
                Error (Printf.sprintf "scenario %S has no metrics" sc)
              else
                let rec each_metric = function
                  | [] -> each_scenario rest
                  | (name, m) :: ms ->
                      let* () = check_metric sc name m in
                      each_metric ms
                in
                each_metric metrics
        in
        each_scenario scenarios
