(** The [wali-bench v1] benchmark-result model.

    A run is a map of scenarios (["app/calc"], ["table2/write"], …), each
    carrying a map of metrics. Every metric declares its nature:

    - [Counter] — a deterministic quantity (instructions retired, syscall
      crossings, virtual-clock ns). Exact by construction; two identical
      builds must emit the identical value, so baselines gate these at
      zero tolerance.
    - [Wall] — a host wall-clock measurement, reported as min-of-N with a
      MAD noise band (see {!Stats}). Nothing here compares wall metrics.

    Emission is canonical — scenarios and metrics sorted by name, fixed
    number formats — so a run of pure counters serializes byte-identically
    every time. Parsing reuses {!Observe.Json}; structural validity is
    {!Observe.Check.check_bench}'s job. *)

type kind = Counter | Wall

type metric = {
  m_kind : kind;
  m_value : float; (* counter: exact integral; wall: min-of-N *)
  m_unit : string; (* "count" | "ns" | "ms" | "bytes" | "pct" *)
  m_n : int; (* samples behind the value; 1 for counters *)
  m_mad : float; (* noise band; 0 for counters *)
}

type t = {
  b_suite : string;
  b_scenarios : (string * (string * metric) list) list; (* both sorted *)
}

let schema_version = 1

let counter ?(unit_ = "count") (v : float) : metric =
  { m_kind = Counter; m_value = v; m_unit = unit_; m_n = 1; m_mad = 0.0 }

let counter_i ?unit_ (v : int64) : metric = counter ?unit_ (Int64.to_float v)

let wall_v ?(unit_ = "ns") ~n ~mad (v : float) : metric =
  { m_kind = Wall; m_value = v; m_unit = unit_; m_n = n; m_mad = mad }

let wall ?unit_ (s : Stats.t) : metric =
  wall_v ?unit_ ~n:s.Stats.s_n ~mad:s.Stats.s_mad s.Stats.s_min

let by_fst l = List.sort (fun (a, _) (b, _) -> compare a b) l

(** Build a run with canonical ordering applied. *)
let make ~suite (scenarios : (string * (string * metric) list) list) : t =
  { b_suite = suite; b_scenarios = by_fst (List.map (fun (n, ms) -> (n, by_fst ms)) scenarios) }

let find_scenario t name = List.assoc_opt name t.b_scenarios
let find_metric t ~scenario ~metric =
  Option.bind (find_scenario t scenario) (List.assoc_opt metric)

(* ---- emission ---- *)

(* Canonical number format: integral values (every counter we emit, and
   most ns values) print with no fraction; the rest keep a fixed three
   decimals. Both re-parse to the same float, so emit-parse-emit is the
   identity. *)
let pp_num (v : float) : string =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let kind_name = function Counter -> "counter" | Wall -> "wall"

let to_json (t : t) : string =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"schema\":\"wali-bench\",\"version\":%d,\"suite\":%s,"
    schema_version
    (Observe.Json.quote t.b_suite);
  Buffer.add_string b "\"scenarios\":{";
  List.iteri
    (fun i (sc, metrics) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%s:{\"metrics\":{" (Observe.Json.quote sc);
      List.iteri
        (fun j (name, m) ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "%s:{\"kind\":\"%s\",\"value\":%s,\"unit\":%s"
            (Observe.Json.quote name) (kind_name m.m_kind) (pp_num m.m_value)
            (Observe.Json.quote m.m_unit);
          (match m.m_kind with
          | Counter -> ()
          | Wall -> Printf.bprintf b ",\"n\":%d,\"mad\":%s" m.m_n (pp_num m.m_mad));
          Buffer.add_char b '}')
        metrics;
      Buffer.add_string b "}}")
    t.b_scenarios;
  Buffer.add_string b "}}\n";
  Buffer.contents b

(* ---- parsing ---- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let of_json (s : string) : (t, string) result =
  (* validate first: everything below can then assume the shape *)
  let* () = Observe.Check.check_bench s in
  let* doc = Observe.Json.parse_result s in
  let str name obj d =
    match Option.bind (Observe.Json.member name obj) Observe.Json.to_str with
    | Some s -> s
    | None -> d
  in
  let num name obj d =
    match Option.bind (Observe.Json.member name obj) Observe.Json.to_num with
    | Some f -> f
    | None -> d
  in
  let metric_of m =
    let kind = if str "kind" m "counter" = "wall" then Wall else Counter in
    {
      m_kind = kind;
      m_value = num "value" m 0.0;
      m_unit = str "unit" m "count";
      m_n = (match kind with Counter -> 1 | Wall -> int_of_float (num "n" m 1.0));
      m_mad = (match kind with Counter -> 0.0 | Wall -> num "mad" m 0.0);
    }
  in
  let scenarios =
    match Option.bind (Observe.Json.member "scenarios" doc) Observe.Json.to_obj with
    | None -> []
    | Some kvs ->
        List.map
          (fun (sc, body) ->
            let metrics =
              match
                Option.bind (Observe.Json.member "metrics" body)
                  Observe.Json.to_obj
              with
              | None -> []
              | Some ms -> List.map (fun (n, m) -> (n, metric_of m)) ms
            in
            (sc, metrics))
          kvs
  in
  Ok (make ~suite:(str "suite" doc "") scenarios)

(* ---- files ---- *)

let save (file : string) (t : t) : unit =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (to_json t))

let load (file : string) : (t, string) result =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> of_json s
  | exception Sys_error e -> Error e
