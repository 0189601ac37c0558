type t = {
  clock : unit -> int;
  t0 : int;
  sink : Trace.sink option;
  sample : int;  (* loop iterations recorded 1-in-[sample] *)
  progress : Progress.t option;
  phase_ns : int array;  (* cumulative span per Phase.t, always kept *)
  phase_hist : Pdf_util.Stats.Histogram.t array option;  (* iff metrics *)
  snapshot_interval_ns : int;  (* 0 = snapshots disabled *)
  mutable max_executions : int;
  mutable outcomes : int;
  mutable last_snap_t : int;
  mutable last_snap_exec : int;
}

let create ?(clock = Clock.now_ns) ?sink ?(sample = 1) ?metrics ?progress () =
  if sample < 1 then invalid_arg "Observer.create: sample must be >= 1";
  let t0 = clock () in
  {
    clock;
    t0;
    sink;
    sample;
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
    (* Snapshots only repaint the live status line, so they fire on its
       cadence and never without it. *)
    snapshot_interval_ns =
      (match progress with Some p -> max 1 (Progress.interval_ns p) | None -> 0);
    max_executions = 0;
    outcomes = 0;
    last_snap_t = 0;
    last_snap_exec = 0;
  }

let tracing t = t.sink <> None
let now_ns t = t.clock () - t.t0

(* A 62-bit finalizer in the style of SplitMix64's: every bit of [exec]
   reaches the low bits the modulus reads. [exec mod sample] alone would
   not do: an iteration runs one or two executions, so a fixed residue
   lands on the extension probe far more often than on the candidate. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3C79AC492BA7B653 in
  let x = (x lxor (x lsr 29)) * 0x1C69B3F74AC4AE35 in
  (x lxor (x lsr 32)) land max_int

(* Deterministic on the execution count alone — never on wall clock —
   so jobs:1 and jobs:N shards sample identical iterations and merged
   traces stay reproducible. [sample = 1] keeps every iteration. *)
let sampled t ~exec = t.sample <= 1 || mix exec mod t.sample = 0

let emit t ~exec ev =
  match t.sink with
  | None -> ()
  | Some sink -> sink.Trace.emit { Event.t_ns = now_ns t; exec; ev }

(* {1 Phase spans} *)

let span_start t = t.clock ()

let record_span t phase d =
  let i = Phase.index phase in
  t.phase_ns.(i) <- t.phase_ns.(i) + d;
  match t.phase_hist with
  | None -> ()
  | Some hists -> Pdf_util.Stats.Histogram.record hists.(i) d

let span_end t phase start = record_span t phase (t.clock () - start)

let phase_totals t =
  List.map (fun p -> (Phase.name p, t.phase_ns.(Phase.index p))) Phase.all

(* {1 Run lifecycle} *)

let run_meta t ~subject ~outcomes ~seed ~max_executions ~incremental =
  t.max_executions <- max_executions;
  t.outcomes <- outcomes;
  emit t ~exec:0
    (Event.Run_meta
       { subject; outcomes; seed; max_executions; incremental; sample = t.sample })

let snapshot_due t =
  t.snapshot_interval_ns > 0 && now_ns t - t.last_snap_t >= t.snapshot_interval_ns

let rate t ~now ~exec =
  let dt = now - t.last_snap_t in
  if dt <= 0 then 0.0 else float_of_int (exec - t.last_snap_exec) *. 1e9 /. float_of_int dt

let snapshot t ~exec ~depth ~valid ~cov ~hits ~misses ~plateau ~hangs ~crashes =
  let now = now_ns t in
  let execs_per_sec = rate t ~now ~exec in
  t.last_snap_t <- now;
  t.last_snap_exec <- exec;
  match t.progress with
  | None -> ()
  | Some p ->
    Progress.print p
      (Progress.render ~execs:exec ~max_executions:t.max_executions ~execs_per_sec
         ~depth ~valid ~cov ~outcomes:t.outcomes ~hits ~misses
         ~plateau ~hangs ~crashes)

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
  match t.progress with None -> () | Some p -> Progress.finish p
