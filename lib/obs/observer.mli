(** The fuzzer-facing telemetry handle, bundling a trace sink, a
    flight-recorder ring, a metrics registry and a live progress line
    behind one optional value.

    The contract with the hot path: the fuzzer holds an [Observer.t
    option]; with [None] nothing is computed — no event construction, no
    clock reads, no allocation. With an observer installed, phase spans
    cost two monotonic clock reads each and trace events one small
    allocation — but only on executions the sampling predicate selects,
    so sampled modes run within a few percent of [None]; measured
    overhead numbers live in BENCH_obs.json and BENCH_monitor.json. *)

type t

val create :
  ?clock:(unit -> int) ->
  ?sink:Trace.sink ->
  ?ring:Trace.ring ->
  ?postmortem:string ->
  ?sample:int ->
  ?metrics:Metrics.t ->
  ?metrics_file:string ->
  ?progress:Progress.t ->
  unit ->
  t
(** All parts optional: sink-only gives tracing, progress-only gives the
    live line, metrics adds per-phase histograms (registered as
    [phase/<name>_ns]). [ring] attaches a flight recorder — it receives
    the same (sampled) event stream as the sink, with or without one.
    [postmortem] is the path prefix {!flight_dump} writes under.
    [sample] records exec-level events for 1-in-N executions (default 1
    = everything); raises [Invalid_argument] when < 1. [metrics_file]
    atomically rewrites a Prometheus text snapshot on each status
    interval (enabling the snapshot cadence even without a progress
    line). [clock] overrides the monotonic clock for deterministic
    tests. *)

val tracing : t -> bool
(** Is a sink or ring attached? Event construction should be guarded on
    this. *)

val sampled : t -> exec:int -> bool
(** Should exec-level events for this execution index be recorded?
    Deterministic on the index alone (never wall clock), so jobs:1 and
    jobs:N shards sample identical executions; always true at
    [sample = 1]. Structural events (valid, crash, hang, fault, rescue,
    lifecycle) are not subject to sampling. The fuzzer gates its phase
    spans on the same predicate, so at [sample > 1] the span totals and
    histograms cover only the sampled executions — that is what keeps
    the sampled and flight-recorder modes within a few percent of an
    unobserved run (BENCH_monitor.json). *)

val now_ns : t -> int
(** Nanoseconds since the observer was created. *)

val emit : t -> exec:int -> Event.t -> unit
(** Stamp with the current clock and the given execution count, and
    forward to the sink and ring (no-op without either). *)

val metrics : t -> Metrics.t option

(** {1 Flight recorder} *)

val flight_recorder : t -> Trace.ring option

val flight_dump : t -> reason:string -> string option
(** Dump the ring's retained events to [<postmortem>-<reason>.jsonl]
    (atomic), returning the path. [None] when no ring or no postmortem
    prefix is attached. Called on fresh crashes, hangs, fault-drill
    triggers and worker deaths. *)

(** {1 Phase spans} *)

val span_start : t -> int
val span_end : t -> Phase.t -> int -> unit
(** [span_end t phase (span_start t)] adds the elapsed nanoseconds to
    the phase's cumulative total and, when a metrics registry is
    attached, its histogram. *)

val span_next : t -> Phase.t -> int -> int
(** Like {!span_end}, but returns the end timestamp so back-to-back
    spans share one clock read: [span_end t p2 (span_next t p1 start)]. *)

val phase_totals : t -> (string * int) list

(** {1 Run lifecycle} *)

val run_meta :
  t ->
  subject:string ->
  outcomes:int ->
  seed:int ->
  max_executions:int ->
  incremental:bool ->
  unit
(** Emit the run header and remember the totals the progress line
    needs. *)

val snapshot_due : t -> bool
(** True when the status cadence has elapsed. Always false without a
    progress line or metrics file, so purely-traced runs contain no
    time-driven events and merged traces stay deterministic. *)

val snapshot :
  t ->
  exec:int ->
  depth:int ->
  valid:int ->
  cov:int ->
  hits:int ->
  misses:int ->
  rescues:int ->
  plateau:int ->
  hangs:int ->
  crashes:int ->
  unit
(** Emit a {!Event.Snapshot}, rewrite the metrics file, and repaint the
    live line. Throughput is computed from the delta since the previous
    snapshot. *)

val finish : t -> exec:int -> valid:int -> cov:int -> unit
(** End of run: emit {!Event.Phases} (with p50/p99 per phase when
    metrics are attached) and {!Event.Run_done}, write the final metrics
    file state, and release the live line. Does not close the sink — its
    opener owns it. *)

val wall_ns : t -> int
