(** Distributed campaign orchestration: one coordinator, [N] forked
    worker processes, a deterministic shard plan.

    A campaign's execution budget is split into a fixed plan of [S]
    shards — each an independent {!Pdf_core.Pfuzzer} run with its own
    SplitMix64-derived seed and budget slice — and the shards are dealt
    round-robin to [N] worker processes. Workers stream sync frames
    (periodic progress results from {!Pdf_core.Pfuzzer.fuzz}'s
    [on_progress] hook, plus one final per-shard result) back over
    pipes; the coordinator
    folds them into a per-shard newest-frame map whose join is
    commutative, associative and idempotent, then merges the final
    per-shard results in shard order.

    The determinism contract: for a fixed plan (same config, same shard
    count), the merged result is {e bit-identical} regardless of worker
    count, worker scheduling, frame arrival order, or worker death
    followed by replay — the plan, not the process topology, defines the
    computation. [pfuzzer check] enforces this as the [dist-equivalence]
    invariant; the wire protocol and the merge semantics are documented
    in DESIGN.md §12. *)

module Pfuzzer = Pdf_core.Pfuzzer

(** {1 Shard plan} *)

type shard = {
  shard_id : int;
  shard_seed : int;  (** derived from the campaign seed, not equal to it *)
  shard_budget : int;  (** this shard's slice of [max_executions] *)
}

type plan = {
  base : Pfuzzer.config;  (** the campaign config shards specialise *)
  shards : shard list;  (** in shard-id order *)
}

val plan : ?shards:int -> Pfuzzer.config -> plan
(** Build the deterministic shard plan: [shards] (default 4, clamped to
    [1 .. max_executions]) entries whose seeds are successive SplitMix64
    draws from [config.seed] and whose budgets split [max_executions]
    evenly, the remainder going one-each to the lowest shard ids. Equal
    configs give equal plans — the plan is a pure function of
    [(config, shards)], which is what makes replay and the
    workers-invariance guarantee possible. *)

val shard_config : plan -> shard -> Pfuzzer.config
(** The config a shard's fuzzing run uses: the base config with the
    shard's seed and budget substituted. *)

(** {1 Sync frames}

    One frame carries one shard's campaign-so-far as a
    {!Pfuzzer.result}. On the wire a frame is a 4-byte big-endian body
    length followed by the body
    [magic "pfsync" | version byte | MD5 of payload | payload]
    — the {!Pdf_util.Envelope} of {!Pfuzzer.Checkpoint}, under a
    distinct magic so a sync frame can never be mistaken for an
    on-disk checkpoint. *)

module Frame : sig
  type t = {
    shard : int;
    seq : int;
        (** per-shard progress clock: the shard's execution count at
            frame time. The final frame uses [budget + 1], so it always
            supersedes every progress frame in the merge. *)
    final : bool;  (** carries the shard's finished result *)
    result : Pfuzzer.result;
    metrics : Pdf_obs.Metrics.snapshot option;
        (** per-shard metrics snapshot piggybacking on the sync channel
            ([origin] = shard id, [clock] = [seq]); [None] from senders
            without a registry. The coordinator folds these with
            {!Pdf_obs.Metrics.Fleet}. *)
  }

  val encode : t -> string
  (** Length prefix plus body, ready to write to a pipe. *)

  val encode_body : t -> string
  (** The body alone (no length prefix) — the canonical bytes the merge
      uses as its deterministic tie-break. *)

  val decode_body : string -> (t, string) result
  (** [Error] carries a one-line reason. Error precedence matches
      {!Pfuzzer.Checkpoint.decode}: too short, bad magic, payload
      digest mismatch, version mismatch, unreadable payload — digest
      before version, so corruption is never misreported as skew. *)

  (** Incremental decoder for a byte stream arriving in arbitrary
      chunks: partial length prefixes, partial bodies and several
      frames per chunk are all handled; a damaged body is rejected
      with its reason and skipped, the stream then resynchronises at
      the next length prefix. An implausible length prefix kills the
      stream (there is nothing to resynchronise on) — the coordinator
      treats the worker as failed and replays its missing shards. *)
  module Decoder : sig
    type frame := t
    type t

    val create : unit -> t
    val feed : t -> bytes -> int -> unit
    (** [feed d chunk n] appends the first [n] bytes of [chunk]. *)

    val next : t -> [ `Frame of frame | `Reject of string | `Await ]
    (** Pop the next complete frame, the rejection reason of the next
        damaged one, or [`Await] when more bytes are needed. *)

    val finish : t -> string option
    (** At EOF: [Some reason] when undecodable bytes remain buffered
        (a truncated trailing frame), [None] on a clean boundary. *)
  end
end

(** {1 Merge}

    The coordinator's accumulator: per shard, the newest frame under
    the total order (seq, finality, encoded bytes). [join] is a
    semilattice join — commutative, associative, idempotent — even on
    adversarial frames, so the fold is insensitive to arrival order
    and to duplicate delivery (a replayed shard re-sends frames the
    dead worker already sent). Property-tested in [test_dist]. *)

module Merge : sig
  type state

  val empty : state
  val add : state -> Frame.t -> state
  val join : state -> state -> state
  val equal : state -> state -> bool

  val frames : state -> Frame.t list
  (** Newest frame per shard, in shard-id order. *)
end

val merge_results : plan -> Pfuzzer.result list -> Pfuzzer.result
(** Merge the final per-shard results (given in shard-id order, one per
    plan shard) into the campaign result:
    valid inputs are concatenated in shard order and deduplicated
    keeping first occurrences; valid coverage is the bitset union;
    branch hit-counts the pointwise sum; crashes are re-keyed by
    [(exn, site)] with counts summed and first-witness data from the
    earliest global execution index; [first_valid_at] and each crash's
    [first_at] are translated onto the campaign-global clock (shard
    [i]'s executions occupy the global indices after the budgets of
    shards [0 .. i-1]); counters sum, [queue_peak] takes the max.
    Wall-clock and throughput are zeroed —
    they are scheduling-dependent, and the merged result is the part of
    a campaign that must be deterministic (timing lives in
    {!outcome.wall_clock_s}). Commutative over shard relabelling only in
    the trivial sense: the input order is the shard order, fixed by the
    plan. *)

(** {1 Campaigns} *)

type outcome = {
  result : Pfuzzer.result;  (** the deterministic merged result *)
  o_plan : plan;
  workers : int;  (** worker processes requested *)
  frames_accepted : int;
  frames_rejected : (int * string) list;
      (** (worker id, one-line reason) for every damaged frame, in
          arrival order — damage never crashes the coordinator *)
  replays : int;  (** shard replays after worker death *)
  worker_status : (int * string) list;
      (** (worker id, ["exit:<code>"] or ["signal:<signum>"]) in reap
          order; replay workers get fresh ids *)
  shard_traces : string list;
      (** per-shard JSONL trace streams in shard-id order, collected
          from the workers; [[]] unless [~trace:true] *)
  metrics : Pdf_obs.Metrics.snapshot option;
      (** fleet totals ({!Pdf_obs.Metrics.Fleet.totals}) folded from the
          snapshots riding the frames; [None] when no frame carried one.
          Deliberately outside [result]: counters and histogram counts
          are deterministic, but timing histogram values are
          scheduling-dependent, and [result] must stay bit-identical
          across worker counts. *)
  wall_clock_s : float;
}

val run_campaign :
  ?workers:int ->
  ?shards:int ->
  ?frame_every:int ->
  ?retries:int ->
  ?trace:bool ->
  ?obs:Pdf_obs.Observer.t ->
  ?kill_worker:int ->
  Pfuzzer.config ->
  Pdf_subjects.Subject.t ->
  outcome
(** Fork [workers] (default 2) processes, run the shard plan (shards
    dealt round-robin, each worker running its shards in ascending
    order), fold the frame streams, replay missing shards, merge.

    [frame_every] (default 500) is the progress-frame cadence in
    per-shard executions — frames ride the progress hook, so it is a
    [checkpoint_every]. [retries] (default 2) bounds how many replay
    rounds a failing set of shards gets, in the spirit of
    {!Parallel.map_retry}; a shard still missing after the last round
    raises [Failure]. [trace] buffers each shard's telemetry in its
    worker and returns the streams in {!outcome.shard_traces}. [obs]
    receives the coordinator's lifecycle events ({!Pdf_obs.Event.Shard},
    [Worker_spawn], [Worker_frame], [Worker_exit], plus a [Retry] per
    shard replay). [kill_worker] is the chaos hook: SIGKILL
    that worker on its first accepted frame — the campaign must still
    produce the bit-identical merged result via replay.

    When stderr is a tty the coordinator also paints a live fleet-wide
    status line (the single-run line plus per-worker health columns),
    refreshed as frames arrive; redirected output stays clean.

    Worker-side subject crashes are ordinary {!Pfuzzer} crash verdicts
    inside the shard result ({!Pdf_instr.Runner.exec}'s containment
    contract); only the worker {e process} dying triggers replay. *)

val reference : ?shards:int -> Pfuzzer.config -> Pdf_subjects.Subject.t ->
  Pfuzzer.result
(** The sequential specification: run the same shard plan in-process,
    no forks, no frames, and merge. [run_campaign] with any worker
    count must equal this bit-for-bit — the [dist-equivalence]
    invariant checks exactly that. *)

val simulate_campaign :
  ?shards:int ->
  ?frame_every:int ->
  workers:int ->
  Pfuzzer.config ->
  Pdf_subjects.Subject.t ->
  Pfuzzer.result
(** An N-worker campaign re-enacted in one process: the same shard
    plan and round-robin assignment as {!run_campaign}, each simulated
    worker's frames encoded to bytes and decoded back through
    {!Frame.Decoder} with the streams interleaved in odd-sized chunks,
    then folded through {!Merge} and merged. Everything but the fork.

    This exists because OCaml 5 refuses [Unix.fork] in any process
    that has ever spawned a domain — {!run_campaign} raises [Failure]
    there, and callers that may run after domain-based code (the
    [dist-equivalence] invariant runs after grid determinism's
    [Experiment.run ~jobs]) fall back to this. *)
