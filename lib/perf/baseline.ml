(** The committed baseline store and the gate's comparison against it.

    The store is one emission ({!files}): [deterministic.json] and one
    [<app>.folded] profile per app. [waliperf baseline update] writes it
    and [waliperf gate] compares it byte for byte ({!mismatches}).

    The counter comparison ({!compare_runs}) names what moved. Every
    metric of the gate's run is a deterministic counter, so it has zero
    tolerance: any drift, in either direction, is a real behavior change
    and fails the gate until the baseline is deliberately updated. All
    units we emit are lower-is-better (ns, counts of work, bytes of
    trace), so "improved" means "smaller". *)

type verdict =
  | Unchanged (* exactly equal *)
  | Improved (* smaller *)
  | Regressed (* larger *)
  | Added (* in current, not in baseline *)
  | Removed (* in baseline, gone from current *)

let verdict_name = function
  | Unchanged -> "unchanged"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Added -> "added"
  | Removed -> "removed"

type row = {
  r_scenario : string;
  r_metric : string;
  r_unit : string;
  r_base : float;
  r_cur : float;
  r_delta_pct : float; (* (cur - base) / base * 100; 0 when base = 0 *)
  r_verdict : verdict;
}

let classify ~scenario ~name ~(base : Model.metric) ~(cur : Model.metric) :
    row =
  let b = base.Model.m_value and c = cur.Model.m_value in
  {
    r_scenario = scenario;
    r_metric = name;
    r_unit = cur.Model.m_unit;
    r_base = b;
    r_cur = c;
    r_delta_pct =
      (if b = 0.0 then if c = 0.0 then 0.0 else 100.0
       else (c -. b) /. b *. 100.0);
    r_verdict =
      (if c = b then Unchanged else if c < b then Improved else Regressed);
  }

let missing ~scenario ~name ~(m : Model.metric) ~(verdict : verdict) : row =
  {
    r_scenario = scenario;
    r_metric = name;
    r_unit = m.Model.m_unit;
    r_base = (if verdict = Added then 0.0 else m.Model.m_value);
    r_cur = (if verdict = Added then m.Model.m_value else 0.0);
    r_delta_pct = 0.0;
    r_verdict = verdict;
  }

(** Compare two runs scenario by scenario, metric by metric. Rows come
    out in the canonical scenario/metric order — deterministic. *)
let compare_runs ~(base : Model.t) ~(cur : Model.t) : row list =
  let rows = ref [] in
  let emit r = rows := r :: !rows in
  List.iter
    (fun (sc, cur_metrics) ->
      match Model.find_scenario base sc with
      | None ->
          List.iter
            (fun (n, m) -> emit (missing ~scenario:sc ~name:n ~m ~verdict:Added))
            cur_metrics
      | Some base_metrics ->
          List.iter
            (fun (n, cur_m) ->
              match List.assoc_opt n base_metrics with
              | None -> emit (missing ~scenario:sc ~name:n ~m:cur_m ~verdict:Added)
              | Some base_m ->
                  emit (classify ~scenario:sc ~name:n ~base:base_m ~cur:cur_m))
            cur_metrics;
          List.iter
            (fun (n, m) ->
              if List.assoc_opt n cur_metrics = None then
                emit (missing ~scenario:sc ~name:n ~m ~verdict:Removed))
            base_metrics)
    cur.Model.b_scenarios;
  List.iter
    (fun (sc, base_metrics) ->
      if Model.find_scenario cur sc = None then
        List.iter
          (fun (n, m) -> emit (missing ~scenario:sc ~name:n ~m ~verdict:Removed))
          base_metrics)
    base.Model.b_scenarios;
  List.rev !rows

(** Rows that moved at all. A counter that "improved" without a baseline
    update is just as much an unexplained behavior change as one that
    regressed. *)
let counter_drift rows = List.filter (fun r -> r.r_verdict <> Unchanged) rows

(** Render rows as an aligned table; [all] includes unchanged rows. *)
let render ?(all = false) (rows : row list) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-28s %-16s %14s %14s %8s  %s\n" "scenario" "metric"
    "baseline" "current" "delta" "verdict";
  List.iter
    (fun r ->
      if all || r.r_verdict <> Unchanged then
        Printf.bprintf b "%-28s %-16s %14s %14s %+7.1f%%  %s\n" r.r_scenario
          r.r_metric
          (Model.pp_num r.r_base ^ " " ^ r.r_unit)
          (Model.pp_num r.r_cur ^ " " ^ r.r_unit)
          r.r_delta_pct (verdict_name r.r_verdict))
    rows;
  Buffer.contents b

(* ---- the store as files ---- *)

let det_file = "deterministic.json"
let folded_file app = app ^ ".folded"

(** The store's files, name and contents, for a run's model and its
    per-app folded profiles ({!Scenario.model}). *)
let files ((model, profiles) : Model.t * (string * string) list) :
    (string * string) list =
  (det_file, Model.to_json model)
  :: List.map (fun (app, folded) -> (folded_file app, folded)) profiles

let read_file f =
  match In_channel.with_open_bin f In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(** Every file where [dir] and [files] differ, with what is wrong: a
    file that is missing or not byte-identical, and a file in [dir] the
    run did not emit. Empty when the run reproduces the store exactly. *)
let mismatches ~dir (files : (string * string) list) : (string * string) list
    =
  let emitted =
    List.filter_map
      (fun (name, contents) ->
        match read_file (Filename.concat dir name) with
        | None -> Some (name, "missing from the baseline")
        | Some s when String.equal s contents -> None
        | Some s ->
            let n = min (String.length s) (String.length contents) in
            let rec first i =
              if i < n && s.[i] = contents.[i] then first (i + 1) else i
            in
            Some (name, Printf.sprintf "differs from this run at byte %d" (first 0)))
      files
  in
  let stale =
    match Sys.readdir dir with
    | names ->
        Array.to_list names |> List.sort compare
        |> List.filter_map (fun name ->
               if List.mem_assoc name files then None
               else Some (name, "not emitted by this run"))
    | exception Sys_error _ -> []
  in
  emitted @ stale
