(** Domain-pool execution of independent tasks (OCaml 5 [Domain]s).

    The evaluation grid is embarrassingly parallel: every
    (tool, subject, seed) cell is a pure function of its arguments, so
    the cells can be fanned out across domains and merged back in a
    deterministic order. Tasks must not share mutable state; every
    fuzzer run in this repository builds its own RNG, queue and tables,
    and registries are only mutated at module initialisation, before any
    domain is spawned. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism to
    use when the caller asks for "as many workers as make sense". *)

val map_retry :
  ?jobs:int ->
  ?retries:int ->
  ?on_retry:(index:int -> attempt:int -> exn -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn) result list
(** [map_retry ~jobs f items] computes [List.map f items], running up to
    [jobs] tasks concurrently on separate domains ([jobs] is honoured as
    requested, clamped only to the number of items; with [jobs <= 1],
    the default, no domain is spawned). Results come back in input order
    regardless of completion order, so output is deterministic whenever
    [f] is. A task whose [f] raises (including one whose worker domain
    died mid-task) does not sink the whole grid: the first pass captures
    each item's outcome as a [result]; failed items are then retried up
    to [retries] (default 2) more times, immediately and sequentially on
    the calling domain. [on_retry ~index ~attempt e] fires just
    before each retry with the input-order index of the failing item and
    the exception from the previous attempt. The returned list is in
    input order; [Error e] marks an item whose every attempt failed,
    carrying the last exception. This function itself never raises. *)
