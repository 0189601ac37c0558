(** Post-hoc trace analysis: replay a JSONL trace into the paper's
    evaluation shapes — coverage over executions (Figure 2), valid
    inputs over time, a per-phase wall-clock breakdown, and the slowest
    executions. *)

type meta = {
  subject : string;
  outcomes : int;
  seed : int;
  max_executions : int;
  sample : int;  (** 1-in-[sample] exec-level sampling of the run *)
}

type point = { exec : int; t_ns : int; cov : int; valid : int }

type slow = {
  s_exec : int;
  s_dur_ns : int;
  s_verdict : string;
  s_len : int;
}

type t = {
  cell : (string * string * int) option;
  meta : meta option;
  execs : int;
  wall_ns : int;
  final_cov : int;  (** valid-coverage cardinal after the last execution *)
  final_valid : int;
  execs_per_sec : float;
  curve : point list;  (** full resolution, one point per execution *)
  phases : (string * int) list;
      (** per-phase span totals, multiplied by [meta.sample]: a sampled
          run's totals estimate the whole run *)
  phase_percentiles : (string * int) list;
  slowest : slow list;
  valids : (int * string) list;
  hangs : int;  (** cumulative fuel-exhaustion count *)
  crashes : int;  (** cumulative contained-crash count *)
  crash_unique : int;  (** distinct (exn, site) crash identities *)
}

val analyse : ?top:int -> ?cell:string * string * int -> Event.stamped list -> t
(** Fold one run's events. [top] (default 10) bounds the slowest-
    execution list. *)

val bucketed : rows:int -> t -> point list
(** The curve thinned to at most [rows] evenly spaced execution counts,
    final point always included — its [cov] equals the run's reported
    valid-coverage cardinal. *)

val csv : t -> string
(** Full-resolution [exec,t_s,branches,coverage_pct,valid] rows for
    external plotting. *)

val render : ?rows:int -> Format.formatter -> t -> unit
(** Human-readable report via {!Pdf_util.Render}: summary, coverage
    table + bar chart, per-phase breakdown summing exactly to the wall
    clock, slowest executions. *)

val report_events : ?rows:int -> ?top:int -> Format.formatter -> Event.stamped list -> t list
(** Segment, analyse and render every run in a trace; returns the
    analyses in trace order. A run starts at a [Cell] event (a merged
    evaluate trace) or at a [Run_meta] after another one (the shard
    streams of a campaign trace). *)
