(** The parser-directed fuzzer: Algorithm 1 of the paper.

    Starting from one random character, the fuzzer alternates two
    executions per iteration — the candidate input itself and the
    candidate extended by one random character — and, whenever a run is
    rejected, enqueues one new candidate per comparison made against the
    last compared input position, splicing in the character(s) the parser
    expected there. Valid inputs (accepted {e and} covering new branches)
    are reported, extend the valid-branch set, and trigger a full
    re-ranking of the queue. *)

type config = {
  seed : int;  (** RNG seed; equal seeds give equal runs *)
  max_executions : int;  (** budget in subject executions *)
  max_input_len : int;  (** candidates longer than this are discarded *)
  heuristic : Heuristic.variant;
  queue_bound : int;  (** queue is truncated to this many entries *)
}

val default_config : config
(** seed 1, 2000 executions, inputs up to 64 characters, {!Heuristic.Prose},
    queue bound 50_000. Candidates whose input was already queued are
    always dropped. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  chars_saved : int;
}
(** The accounting of the prefix-snapshot cache that earlier builds ran
    in the loop. The fuzzer has no cache now, so every field is zero; the
    record stays because the campaign benchmark still reads it, and
    goes with [Runner]'s engine stubs (ROADMAP item 1). *)

val no_cache_stats : cache_stats
(** All-zero stats: what every result reports. *)

type crash = {
  exn : string;  (** exception constructor name *)
  site : int;  (** crash-site hash; see {!Pdf_instr.Runner.crash} *)
  detail : string;  (** printed form of the first witnessed exception *)
  input : string;  (** first input that triggered this crash identity *)
  first_at : int;  (** execution count at the first witness *)
  count : int;  (** executions that crashed with this identity *)
}
(** One deduplicated crash-corpus entry. Identities are [(exn, site)]
    pairs; at most 256 distinct identities are retained (further fresh
    identities still count towards [crash_total]). *)

type result = {
  valid_inputs : string list;  (** in discovery order *)
  valid_coverage : Pdf_instr.Coverage.t;
      (** union of the full coverage of all valid inputs (the paper's
          [vBr]) *)
  hits : Pdf_instr.Hits.t;
      (** global branch hit-counts: how many executions (of any verdict)
          reached each outcome. Deterministic for a fixed seed, and
          mergeable across distributed shards by pointwise sum *)
  executions : int;  (** executions actually performed *)
  candidates_created : int;
  queue_peak : int;
  first_valid_at : int option;
      (** execution count when the first valid input appeared *)
  dedupe_resets : int;
      (** times the input-dedupe table hit its cap (4 × [queue_bound])
          and was generationally reset to bound memory *)
  path_resets : int;
      (** same, for the path-novelty count table *)
  cache : cache_stats;  (** always {!no_cache_stats} *)
  crashes : crash list;
      (** deduplicated crash corpus in discovery order; empty for a
          well-behaved subject *)
  crash_total : int;  (** executions that ended in a [Crash] verdict *)
  hangs : int;  (** executions that ended in a [Hang] verdict *)
  wall_clock_s : float;  (** wall-clock duration of the whole run *)
  execs_per_sec : float;
      (** [executions /. wall_clock_s]; 0 when the run took no
          measurable time *)
}

type queue_event =
  | Pushed of float * string  (** candidate enqueued with this priority *)
  | Popped of float * string  (** candidate dequeued for execution *)
  | Reranked of (float * string) list
      (** queue re-prioritised after a valid input; the snapshot lists
          the pending entries in insertion order with new priorities *)
  | Truncated of (float * string) list
      (** queue truncated to its bound; snapshot as in [Reranked] *)

(** {1 Checkpoints}

    A checkpoint captures the campaign's deterministic state at a
    loop-top instant: configuration, RNG state, the candidate queue (in
    insertion order) plus the candidate about to execute, the
    valid-branch set, the dedupe/path tables, all counters, and the
    crash corpus. On disk a checkpoint is a {!Pdf_util.Envelope}
    under magic ["pfckpt"], written atomically; decoding rejects wrong
    magic, wrong version, and any payload that fails its digest, each
    with a one-line error. *)

module Checkpoint : sig
  type t

  val version : int
  (** Format version this build reads and writes (currently 6; v2 added
      the [engine] and [batch] config fields, v3 the global branch
      hit-counts, v4 removed [engine] and [batch], v5 removed
      [dedupe], v6 removed [incremental]). *)

  val subject_name : t -> string
  val executions : t -> int
  val config : t -> config

  val partial_result : t -> result
  (** The campaign-so-far captured by this checkpoint, as a result
      record: valid inputs in discovery order, valid coverage, branch
      hit-counts, crash corpus and all deterministic counters at the
      checkpoint instant. Cache accounting and wall-clock fields are
      zero. *)

  val encode : t -> string

  val decode : string -> (t, string) Stdlib.result
  (** Inverse of {!encode}; [Error] carries a one-line human-readable
      reason. The error precedence is explicit and stable: a too-short
      file, then bad magic, then a {b payload digest mismatch}, then a
      {b version mismatch}, then an unreadable payload. The digest is
      verified {e before} the version byte is interpreted (the header
      layout is frozen across versions, so this is well-defined):
      corruption is never misreported as version skew even when the rot
      hits the version byte, and a clean checkpoint from another build
      reports a genuine version mismatch. *)

  val save : string -> t -> unit
  (** Atomic write-to-temp-then-rename; a kill mid-save leaves the
      previous checkpoint intact. *)

  val load : string -> (t, string) Stdlib.result
end

val fuzz :
  ?on_valid:(string -> unit) ->
  ?on_queue_event:(queue_event -> unit) ->
  ?on_execution:(Pdf_instr.Runner.run -> unit) ->
  ?obs:Pdf_obs.Observer.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.t -> unit) ->
  ?initial_inputs:string list ->
  config ->
  Pdf_subjects.Subject.t ->
  result
(** Run the fuzzer against a subject until the execution budget is
    exhausted. [on_valid] is called on each valid input as it is found.
    [on_queue_event] observes every candidate-queue operation (snapshots
    are only taken when the observer is present) — the correctness
    harness replays them against a reference queue model to check
    priority monotonicity. [on_execution] observes every completed run in
    execution order. Each run it gets is packaged for it and is the
    listener's to keep; without a listener, no run is packaged: every
    execution runs in the campaign's one reused context and is read in
    place. [obs] attaches a telemetry observer: structured trace
    events, per-phase timing spans, a live status line — when absent
    (the default) the telemetry paths cost one branch and allocate
    nothing. [on_checkpoint] is called with a fresh {!Checkpoint.t} at the
    first loop-top instant (one candidate is up to two executions) at
    least [checkpoint_every] (default 1000) executions after the
    previous one;
    what to do with it (typically {!Checkpoint.save}) is the caller's
    choice.

    Exception contract: subject exceptions never escape [fuzz] — they
    are contained as [Crash] verdicts by {!Pdf_instr.Runner} and triaged
    into [result.crashes]. This holds identically when [fuzz] runs
    inside a distributed worker process ([Pdf_eval.Dist]); the death of
    the worker process itself is outside this function's contract and is
    recovered by the coordinator replaying the shard.

    [initial_inputs] seeds the candidate queue — the §6.2
    hand-over point when pFuzzer continues from a lexical fuzzer's
    corpus. *)

val resume_from :
  ?on_valid:(string -> unit) ->
  ?on_queue_event:(queue_event -> unit) ->
  ?on_execution:(Pdf_instr.Runner.run -> unit) ->
  ?obs:Pdf_obs.Observer.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.t -> unit) ->
  Checkpoint.t ->
  Pdf_subjects.Subject.t ->
  result
(** Continue a checkpointed campaign to its budget. The subject must be
    the one named in the checkpoint ([Invalid_argument] otherwise); the
    config — including seed and budget — comes from the checkpoint. A
    resumed run's result equals the uninterrupted run's result in every
    field except wall-clock timing. Queue-event
    streams start from the restored queue, so [on_queue_event] replay
    models must be primed with the checkpoint's queue contents. *)
