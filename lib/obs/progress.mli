(** The AFL-style live status line.

    Rendering is a pure function of the sampled numbers so it can be
    golden-tested; painting overwrites in place on a tty and degrades to
    plain lines when redirected. *)

type t

val create : ?out:out_channel -> ?interval_s:float -> unit -> t
(** Defaults: stderr, one-second cadence. *)

val interval_ns : t -> int

val render :
  execs:int ->
  max_executions:int ->
  execs_per_sec:float ->
  depth:int ->
  valid:int ->
  cov:int ->
  outcomes:int ->
  hits:int ->
  misses:int ->
  plateau:int ->
  hangs:int ->
  crashes:int ->
  string
(** One status line: executions, throughput, queue depth, valid count, coverage percentage,
    cache hit rate ("-" before any consultation), plateau age in executions, and cumulative hang and crash counts. *)

val print : t -> string -> unit
val finish : t -> unit
(** Terminate a live line with a newline, if one is painted. *)
