(** The fuzzer-facing telemetry handle, bundling a trace sink, a
    metrics registry and a live progress line behind one optional
    value.

    The contract with the hot path: the fuzzer holds an [Observer.t
    option]; with [None] nothing is computed — no event construction, no
    clock reads, no allocation. With an observer installed, phase spans
    cost two monotonic clock reads each and trace events one small
    allocation — but only in loop iterations the sampling predicate
    selects, so sampled modes run within a few percent of [None].
    perfbench's [observed] workload measures the sampled mode
    ([obs.overhead_frac] in its traced run). *)

type t

val create :
  ?clock:(unit -> int) ->
  ?sink:Trace.sink ->
  ?sample:int ->
  ?metrics:Metrics.t ->
  ?progress:Progress.t ->
  unit ->
  t
(** All parts optional: sink-only gives tracing, progress-only gives the
    live line, metrics adds per-phase histograms (registered as
    [phase/<name>_ns]). [sample] records exec-level events and phase
    spans for 1 in N loop iterations (default 1 = everything); raises
    [Invalid_argument] when < 1. [clock] overrides the monotonic clock
    for deterministic tests. *)

val tracing : t -> bool
(** Is a sink attached? Event construction should be guarded on this. *)

val sampled : t -> exec:int -> bool
(** Should the loop iteration that starts at execution count [exec] be
    recorded? The fuzzer asks once per iteration, and every exec-level
    event and phase span of that iteration follows the answer. It is a
    deterministic hash of the count (never wall clock), so jobs:1 and
    jobs:N shards sample identical iterations; always true at
    [sample = 1]. Structural events (valid, crash, hang, lifecycle) are
    not subject to sampling. At [sample > 1] the span
    totals and histograms cover only the sampled iterations — that is
    what keeps the sampled mode within a few percent of an unobserved
    run. *)

val now_ns : t -> int
(** Nanoseconds since the observer was created. *)

val emit : t -> exec:int -> Event.t -> unit
(** Stamp with the current clock and the given execution count, and
    forward to the sink (no-op without one). *)

(** {1 Phase spans} *)

val span_start : t -> int
val span_end : t -> Phase.t -> int -> unit
(** [span_end t phase (span_start t)] adds the elapsed nanoseconds to
    the phase's cumulative total and, when a metrics registry is
    attached, its histogram. *)

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
    progress line. *)

val snapshot :
  t ->
  exec:int ->
  depth:int ->
  valid:int ->
  cov:int ->
  hits:int ->
  misses:int ->
  plateau:int ->
  hangs:int ->
  crashes:int ->
  unit
(** Repaint the live line. Throughput is computed from the delta since
    the previous snapshot. Nothing is written to the trace. *)

val finish : t -> exec:int -> valid:int -> cov:int -> unit
(** End of run: emit {!Event.Phases} (with p50/p99 per phase when
    metrics are attached) and {!Event.Run_done}, and release the live
    line. Does not close the sink — its opener owns it. *)
