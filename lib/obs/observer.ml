type t = {
  clock : unit -> int;
  t0 : int;
  sink : Trace.sink option;  (* file sink and/or flight-recorder ring *)
  ring : Trace.ring option;
  postmortem : string option;  (* path prefix for flight-recorder dumps *)
  sample : int;  (* exec-level events recorded 1-in-[sample] *)
  metrics : Metrics.t option;
  metrics_file : string option;
  progress : Progress.t option;
  phase_ns : int array;  (* cumulative span per Phase.t, always kept *)
  phase_hist : Pdf_util.Stats.Histogram.t array option;  (* iff metrics *)
  snapshot_interval_ns : int;  (* 0 = snapshots disabled *)
  mutable max_executions : int;
  mutable outcomes : int;
  mutable last_snap_t : int;
  mutable last_snap_exec : int;
}

let create ?(clock = Clock.now_ns) ?sink ?ring ?postmortem ?(sample = 1)
    ?metrics ?metrics_file ?progress () =
  if sample < 1 then invalid_arg "Observer.create: sample must be >= 1";
  let t0 = clock () in
  {
    clock;
    t0;
    (* The ring is just another sink: events reach it through the same
       emission path, so it sees exactly what a file trace would —
       including the sampling filter. *)
    sink =
      (match (sink, ring) with
       | None, None -> None
       | Some s, None -> Some s
       | None, Some r -> Some (Trace.ring_sink r)
       | Some s, Some r -> Some (Trace.tee s (Trace.ring_sink r)));
    ring;
    postmortem;
    sample;
    metrics;
    metrics_file;
    progress;
    phase_ns = Array.make Phase.count 0;
    phase_hist =
      (match metrics with
       | None -> None
       | Some m ->
         Some
           (Array.of_list
              (List.map
                 (fun p -> Metrics.histogram m ("phase/" ^ Phase.name p ^ "_ns"))
                 Phase.all)));
    (* Snapshots fire on the progress cadence only: a trace without a
       live status line stays structurally deterministic (no
       time-driven events), which the jobs:1 ≡ jobs:N merged-trace
       check relies on. A metrics file needs the same cadence, so it
       opts in to snapshots exactly like a progress line does. *)
    snapshot_interval_ns =
      (match progress with
       | Some p -> max 1 (Progress.interval_ns p)
       | None -> (match metrics_file with Some _ -> 1_000_000_000 | None -> 0));
    max_executions = 0;
    outcomes = 0;
    last_snap_t = 0;
    last_snap_exec = 0;
  }

let tracing t = t.sink <> None
let now_ns t = t.clock () - t.t0
let wall_ns = now_ns
let metrics t = t.metrics

(* Deterministic on the execution index alone — never on wall clock —
   so jobs:1 and jobs:N shards sample identical executions and merged
   traces stay reproducible. [sample = 1] keeps every event, making an
   unsampled trace byte-identical to the pre-sampling format. *)
let sampled t ~exec = t.sample <= 1 || exec mod t.sample = 0

let emit t ~exec ev =
  match t.sink with
  | None -> ()
  | Some sink -> sink.Trace.emit { Event.t_ns = now_ns t; exec; ev }

(* {1 Flight recorder} *)

let flight_recorder t = t.ring

let flight_dump t ~reason =
  match (t.ring, t.postmortem) with
  | Some r, Some prefix ->
    let path = Printf.sprintf "%s-%s.jsonl" prefix reason in
    Trace.dump_ring r path;
    Some path
  | _ -> None

(* {1 Phase spans} *)

let span_start t = t.clock ()

let record_span t phase d =
  let i = Phase.index phase in
  t.phase_ns.(i) <- t.phase_ns.(i) + d;
  match t.phase_hist with
  | None -> ()
  | Some hists -> Pdf_util.Stats.Histogram.record hists.(i) d

let span_end t phase start = record_span t phase (t.clock () - start)

let span_next t phase start =
  let now = t.clock () in
  record_span t phase (now - start);
  now

let phase_totals t =
  List.map (fun p -> (Phase.name p, t.phase_ns.(Phase.index p))) Phase.all

(* {1 Run lifecycle} *)

let run_meta t ~subject ~outcomes ~seed ~max_executions ~incremental =
  t.max_executions <- max_executions;
  t.outcomes <- outcomes;
  emit t ~exec:0
    (Event.Run_meta { subject; outcomes; seed; max_executions; incremental })

let snapshot_due t =
  t.snapshot_interval_ns > 0 && now_ns t - t.last_snap_t >= t.snapshot_interval_ns

let rate t ~now ~exec =
  let dt = now - t.last_snap_t in
  if dt <= 0 then 0.0 else float_of_int (exec - t.last_snap_exec) *. 1e9 /. float_of_int dt

let write_metrics_file t ~exec =
  match (t.metrics_file, t.metrics) with
  | Some path, Some m ->
    Pdf_util.Atomic_file.write_string path
      (Exposition.prometheus (Metrics.snapshot ~origin:0 ~clock:exec m))
  | _ -> ()

let snapshot t ~exec ~depth ~valid ~cov ~hits ~misses ~rescues ~plateau ~hangs
    ~crashes =
  let now = now_ns t in
  let execs_per_sec = rate t ~now ~exec in
  t.last_snap_t <- now;
  t.last_snap_exec <- exec;
  emit t ~exec
    (Event.Snapshot
       {
         execs_per_sec;
         depth;
         valid;
         cov;
         hits;
         misses;
         rescues;
         plateau;
         hangs;
         crashes;
       });
  write_metrics_file t ~exec;
  match t.progress with
  | None -> ()
  | Some p ->
    Progress.print p
      (Progress.render ~execs:exec ~max_executions:t.max_executions ~execs_per_sec
         ~depth ~valid ~cov ~outcomes:t.outcomes ~hits ~misses
         ~rescues ~plateau ~hangs ~crashes)

let finish t ~exec ~valid ~cov =
  let wall = now_ns t in
  (if tracing t then begin
     let spans = phase_totals t in
     let spans =
       match t.phase_hist with
       | None -> spans
       | Some hists ->
         spans
         @ List.concat_map
             (fun p ->
               let h = hists.(Phase.index p) in
               if Pdf_util.Stats.Histogram.count h = 0 then []
               else
                 [
                   (Phase.name p ^ "_p50", Pdf_util.Stats.Histogram.percentile h 50.0);
                   (Phase.name p ^ "_p99", Pdf_util.Stats.Histogram.percentile h 99.0);
                 ])
             Phase.all
     in
     emit t ~exec (Event.Phases { spans; wall_ns = wall });
     emit t ~exec
       (Event.Run_done
          {
            valid;
            cov;
            wall_ns = wall;
            execs_per_sec =
              (if wall <= 0 then 0.0 else float_of_int exec *. 1e9 /. float_of_int wall);
          })
   end);
  write_metrics_file t ~exec;
  match t.progress with None -> () | Some p -> Progress.finish p
