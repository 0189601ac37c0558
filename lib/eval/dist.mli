(** Distributed campaign orchestration: one coordinator, [N] forked
    worker processes, a deterministic shard plan.

    A campaign's execution budget is split into a fixed plan of [S]
    shards — each an independent {!Pdf_core.Pfuzzer} run with its own
    SplitMix64-derived seed and budget slice — and the shards are dealt
    round-robin to [N] worker processes. A worker sends one sync frame
    per shard back over its pipe, carrying the shard's final result;
    the coordinator keeps one {!Slots} slot per shard, which holds that
    frame once it arrives, then merges the finals in shard order.

    The determinism contract: for a fixed plan (same config, same shard
    count), the merged result is {e bit-identical} regardless of worker
    count, worker scheduling, the interleaving of the workers' pipes, or
    worker death followed by replay — the plan, not the process
    topology, defines the computation. [pfuzzer check] enforces this as
    the [dist-equivalence] invariant; the wire protocol and the slot
    rule are documented in DESIGN.md §12. *)

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

    One frame carries one shard's finished result as a
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
        (** [budget + 1] on a worker's frame, which is always its
            shard's final. Nothing reads it. *)
    final : bool;  (** carries the shard's finished result *)
    result : Pfuzzer.result;
    metrics : Pdf_obs.Metrics.snapshot option;
        (** [None] from every worker; nothing reads it. It and [seq]
            keep the frame layout at version 6. *)
  }

  val encode : t -> string
  (** Length prefix plus body, ready to write to a pipe. *)

  val encode_body : t -> string
  (** The body alone (no length prefix), as {!decode_body} reads it.
      Frames are pure data scrubbed of timing, so equal frames have
      equal bodies. *)

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

(** {1 Slots}

    The coordinator's accumulator: one slot per plan shard, which holds
    the shard's final frame once it arrives. Nothing replaces it, and
    nothing needs to: a shard has one owner at a time, which sends only
    the shard's final over one FIFO pipe, and a shard is replayed only
    after its owner's pipe reached EOF without the final, so a final
    arrives at most once. *)

module Slots : sig
  type t

  val create : plan -> t
  (** Every slot empty. *)

  val add : t -> Frame.t -> (unit, string) result
  (** Fill the frame's slot unless it already holds a final. [Error]
      with a one-line reason, and no change, for a frame that is not a
      final or whose shard is outside the plan. *)

  val finals : t -> Frame.t list
  (** The final in each filled slot, in shard-id order. *)

  val missing : t -> shard list
  (** The plan shards whose slot holds no final, in shard-id order. *)
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
      (** (worker id, one-line reason) for every damaged frame, every
          frame that is not a final and every frame for a shard outside
          the plan, in arrival order — none crashes the coordinator *)
  replays : int;  (** shard replays after worker death *)
  worker_status : (int * string) list;
      (** (worker id, ["exit:<code>"] or ["signal:<signum>"]) in reap
          order; replay workers get fresh ids *)
  shard_traces : string list;
      (** per-shard JSONL trace streams in shard-id order, collected
          from the workers; [[]] unless [~trace:true] *)
  wall_clock_s : float;
}

val run_campaign :
  ?workers:int ->
  ?shards:int ->
  ?retries:int ->
  ?trace:bool ->
  ?kill_worker:int ->
  Pfuzzer.config ->
  Pdf_subjects.Subject.t ->
  outcome
(** Fork [workers] (default 2) processes, run the shard plan (shards
    dealt round-robin, each worker running its shards in ascending
    order and sending one final frame per shard), fill the slots,
    replay missing shards, merge the finals.

    [retries] (default 2) bounds how many replay rounds a failing set
    of shards gets, in the spirit of {!Parallel.map_retry}; a shard
    still missing after the last round raises [Failure]. [trace]
    attaches an observer to each shard, buffers its telemetry in the
    worker and returns the streams in {!outcome.shard_traces}; without
    it shards run unobserved. [kill_worker] is the chaos hook: that
    worker SIGKILLs itself right after it is forked, before it runs a
    shard, so every shard it owns is replayed — the campaign must still
    produce the bit-identical merged result.

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
  workers:int ->
  Pfuzzer.config ->
  Pdf_subjects.Subject.t ->
  Pfuzzer.result
(** An N-worker campaign re-enacted in one process: the same shard
    plan and round-robin assignment as {!run_campaign}, each simulated
    worker's final frames encoded to bytes and decoded back through
    {!Frame.Decoder} with the streams interleaved in odd-sized chunks,
    then filled into {!Slots} and merged. Everything but the fork.

    This exists because OCaml 5 refuses [Unix.fork] in any process
    that has ever spawned a domain — {!run_campaign} raises [Failure]
    there, and callers that may run after domain-based code (the
    [dist-equivalence] invariant runs after grid determinism's
    [Experiment.run ~jobs]) fall back to this. *)
