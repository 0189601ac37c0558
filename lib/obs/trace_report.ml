module Render = Pdf_util.Render

type meta = {
  subject : string;
  outcomes : int;
  seed : int;
  max_executions : int;
  incremental : bool;
  sample : int;
}

type point = { exec : int; t_ns : int; cov : int; valid : int }

type slow = {
  s_exec : int;
  s_dur_ns : int;
  s_verdict : string;
  s_len : int;
  s_cached : bool;
}

type t = {
  cell : (string * string * int) option;  (* tool, subject, seed in merged traces *)
  meta : meta option;
  execs : int;
  wall_ns : int;
  final_cov : int;
  final_valid : int;
  execs_per_sec : float;
  curve : point list;  (* one point per execution, in order *)
  phases : (string * int) list;  (* cumulative span totals, scaled by [sample] *)
  phase_percentiles : (string * int) list;  (* <phase>_p50 / _p99 entries *)
  slowest : slow list;  (* top-N by duration, longest first *)
  cache_hits : int;
  cache_misses : int;
  valids : (int * string) list;  (* exec count, input — in discovery order *)
  hangs : int;
  crashes : int;
  crash_unique : int;  (* distinct (exn, site) identities *)
}

(* Split a trace into runs. A merged evaluate trace heads each cell
   with a Cell event, which its run's Run_meta follows; a campaign
   trace is its shards' streams back to back, each opening with a
   Run_meta. So a segment ends at a Cell, and at a Run_meta when it
   already holds one. A trace with neither is one anonymous segment. *)
let segments events =
  let flush cell acc segs =
    match (cell, acc) with
    | None, [] -> segs
    | _ -> (cell, List.rev acc) :: segs
  in
  let rec go cell meta acc segs = function
    | [] -> List.rev (flush cell acc segs)
    | ({ Event.ev = Event.Cell c; _ } : Event.stamped) :: rest ->
      go (Some (c.tool, c.subject, c.seed)) false [] (flush cell acc segs) rest
    | ({ Event.ev = Event.Run_meta _; _ } as ev) :: rest when meta ->
      go None true [ ev ] (flush cell acc segs) rest
    | ({ Event.ev = Event.Run_meta _; _ } as ev) :: rest ->
      go cell true (ev :: acc) segs rest
    | ev :: rest -> go cell meta (ev :: acc) segs rest
  in
  go None false [] [] events

let known_phases = List.map Phase.name Phase.all

let analyse ?(top = 10) ?cell events =
  let meta = ref None in
  let curve_rev = ref [] in
  let execs = ref 0 in
  let last_t = ref 0 in
  let cov = ref 0 in
  let valid = ref 0 in
  let phases = ref [] in
  let phase_percentiles = ref [] in
  let wall = ref 0 in
  let eps = ref 0.0 in
  let hits = ref 0 in
  let misses = ref 0 in
  let valids_rev = ref [] in
  let slow_all = ref [] in
  let hangs = ref 0 in
  let crashes = ref 0 in
  let crash_unique = ref 0 in
  List.iter
    (fun (s : Event.stamped) ->
      last_t := max !last_t s.t_ns;
      execs := max !execs s.exec;
      match s.ev with
      | Event.Run_meta m ->
        meta :=
          Some
            {
              subject = m.subject;
              outcomes = m.outcomes;
              seed = m.seed;
              max_executions = m.max_executions;
              incremental = m.incremental;
              sample = m.sample;
            }
      | Event.Exec_done e ->
        cov := e.cov;
        if e.valid then incr valid;
        curve_rev := { exec = s.exec; t_ns = s.t_ns; cov = e.cov; valid = !valid } :: !curve_rev;
        slow_all :=
          {
            s_exec = s.exec;
            s_dur_ns = e.dur_ns;
            s_verdict = e.verdict;
            s_len = e.len;
            s_cached = e.cached;
          }
          :: !slow_all
      | Event.Valid v -> valids_rev := (s.exec, v.input) :: !valids_rev
      | Event.Cache_hit _ -> incr hits
      | Event.Cache_miss -> incr misses
      | Event.Hang h -> hangs := max !hangs h.total
      | Event.Crash c ->
        crashes := max !crashes c.total;
        if c.fresh then incr crash_unique
      | Event.Phases p ->
        phases := List.filter (fun (name, _) -> List.mem name known_phases) p.spans;
        phase_percentiles :=
          List.filter (fun (name, _) -> not (List.mem name known_phases)) p.spans;
        wall := p.wall_ns
      | Event.Run_done r ->
        wall := r.wall_ns;
        eps := r.execs_per_sec;
        cov := max !cov r.cov;
        valid := max !valid r.valid
      | _ -> ())
    events;
  let wall = if !wall > 0 then !wall else !last_t in
  (* A sampled run times the phases of 1 in [sample] executions only;
     scaling the totals estimates the whole run, so "other" stays the
     time outside the phases. Percentiles describe single spans and
     need no scaling. *)
  let sample = match !meta with Some m -> m.sample | None -> 1 in
  let slowest =
    List.sort (fun a b -> compare b.s_dur_ns a.s_dur_ns) !slow_all
    |> List.filteri (fun i _ -> i < top)
  in
  {
    cell;
    meta = !meta;
    execs = !execs;
    wall_ns = wall;
    final_cov = !cov;
    final_valid = !valid;
    execs_per_sec =
      (if !eps > 0.0 then !eps
       else if wall > 0 then float_of_int !execs *. 1e9 /. float_of_int wall
       else 0.0);
    curve = List.rev !curve_rev;
    phases = List.map (fun (name, ns) -> (name, ns * sample)) !phases;
    phase_percentiles = !phase_percentiles;
    slowest;
    cache_hits = !hits;
    cache_misses = !misses;
    valids = List.rev !valids_rev;
    hangs = !hangs;
    crashes = !crashes;
    crash_unique = !crash_unique;
  }

(* Thin the per-execution curve to at most [rows] evenly spaced points
   (by execution count), always keeping the final point — the Figure-2
   x-axis at table resolution. *)
let bucketed ~rows t =
  match t.curve with
  | [] -> []
  | curve ->
    let last = List.nth curve (List.length curve - 1) in
    let n = max 1 (min rows last.exec) in
    let points = Array.of_list curve in
    let res = ref [] and pi = ref 0 in
    for b = 1 to n do
      let target = b * last.exec / n in
      while
        !pi < Array.length points - 1 && points.(!pi + 1).exec <= target
      do
        incr pi
      done;
      let p = points.(!pi) in
      match !res with
      | q :: _ when q.exec = p.exec -> ()
      | _ -> res := p :: !res
    done;
    let res = if (List.hd !res).exec < last.exec then last :: !res else !res in
    List.rev res

let seconds ns = float_of_int ns /. 1e9

let csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "exec,t_s,branches,coverage_pct,valid\n";
  let outcomes = match t.meta with Some m -> m.outcomes | None -> 0 in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%.6f,%d,%.2f,%d\n" p.exec (seconds p.t_ns) p.cov
           (if outcomes = 0 then 0.0 else 100.0 *. float_of_int p.cov /. float_of_int outcomes)
           p.valid))
    t.curve;
  Buffer.contents buf

let render ?(rows = 20) ppf t =
  (match t.cell with
   | Some (tool, subject, seed) ->
     Render.section ppf (Printf.sprintf "%s on %s, seed %d" tool subject seed)
   | None -> ());
  (match t.meta with
   | Some m ->
     Format.fprintf ppf
       "subject %s, seed %d, budget %d executions, incremental %b@."
       m.subject m.seed m.max_executions m.incremental
   | None -> ());
  Format.fprintf ppf
    "%d executions in %.2fs (%.0f execs/sec), %d valid inputs, %d branches covered"
    t.execs (seconds t.wall_ns) t.execs_per_sec t.final_valid t.final_cov;
  (match t.meta with
   | Some m when m.outcomes > 0 ->
     Format.fprintf ppf " (%.1f%%)"
       (100.0 *. float_of_int t.final_cov /. float_of_int m.outcomes)
   | _ -> ());
  Format.fprintf ppf "@.";
  if t.cache_hits + t.cache_misses > 0 then
    Format.fprintf ppf "prefix cache: %d hits, %d misses (%.1f%% hit rate)@."
      t.cache_hits t.cache_misses
      (100.0 *. float_of_int t.cache_hits /. float_of_int (t.cache_hits + t.cache_misses));
  if t.hangs + t.crashes > 0 then
    Format.fprintf ppf "resilience: %d hangs, %d crashes (%d unique)@." t.hangs
      t.crashes t.crash_unique;
  (* Coverage over time: the paper's Figure 2 as a table + bar chart. *)
  let buckets = bucketed ~rows t in
  let outcomes = match t.meta with Some m -> m.outcomes | None -> 0 in
  if buckets <> [] then begin
    Render.table ppf ~title:"coverage over time"
      ~header:[ "execs"; "t (s)"; "branches"; "coverage %"; "valid inputs" ]
      (List.map
         (fun p ->
           [
             string_of_int p.exec;
             Printf.sprintf "%.2f" (seconds p.t_ns);
             string_of_int p.cov;
             (if outcomes = 0 then "-"
              else Printf.sprintf "%.1f" (100.0 *. float_of_int p.cov /. float_of_int outcomes));
             string_of_int p.valid;
           ])
         buckets);
    Render.bar_chart ppf ~title:"branch coverage over executions"
      (List.map (fun p -> (string_of_int p.exec, float_of_int p.cov)) buckets)
  end;
  (* Per-phase wall-clock breakdown; "other" is everything outside the
     instrumented spans, so the rows sum to the wall clock exactly. *)
  if t.phases <> [] then begin
    let spent = List.fold_left (fun acc (_, ns) -> acc + ns) 0 t.phases in
    let rows =
      t.phases @ [ ("other", t.wall_ns - spent) ]
      |> List.map (fun (name, ns) ->
             let pct =
               if t.wall_ns = 0 then 0.0
               else 100.0 *. float_of_int ns /. float_of_int t.wall_ns
             in
             let pick suffix =
               match List.assoc_opt (name ^ suffix) t.phase_percentiles with
               | Some v -> Printf.sprintf "%.1f" (float_of_int v /. 1e3)
               | None -> "-"
             in
             [
               name;
               Printf.sprintf "%.3f" (seconds ns);
               Printf.sprintf "%.1f" pct;
               pick "_p50";
               pick "_p99";
             ])
    in
    let title =
      match t.meta with
      | Some m when m.sample > 1 ->
        Printf.sprintf
          "per-phase time breakdown (spans of 1 in %d executions, totals scaled x%d)"
          m.sample m.sample
      | _ -> "per-phase time breakdown"
    in
    Render.table ppf ~title
      ~header:[ "phase"; "total (s)"; "% of wall"; "p50 (us)"; "p99 (us)" ]
      (rows
      @ [
          [ "wall clock"; Printf.sprintf "%.3f" (seconds t.wall_ns); "100.0"; "-"; "-" ];
        ])
  end;
  if t.slowest <> [] then
    Render.table ppf ~title:"slowest executions"
      ~header:[ "exec #"; "dur (us)"; "verdict"; "input len"; "cached" ]
      (List.map
         (fun s ->
           [
             string_of_int s.s_exec;
             Printf.sprintf "%.1f" (float_of_int s.s_dur_ns /. 1e3);
             s.s_verdict;
             string_of_int s.s_len;
             string_of_bool s.s_cached;
           ])
         t.slowest)

let report_events ?rows ?top ppf events =
  List.map
    (fun (cell, evs) ->
      let a = analyse ?top ?cell evs in
      render ?rows ppf a;
      a)
    (segments events)
