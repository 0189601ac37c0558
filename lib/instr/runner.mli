(** Running a subject parser on one input and packaging the observations.

    This is the harness boundary every fuzzer goes through: one call to
    {!exec} corresponds to one execution of the instrumented program in
    the paper (exit status, comparison log, coverage, trace, EOF flag). *)

type crash = {
  exn : string;
      (** the exception's constructor name ([Printexc.exn_slot_name]),
          e.g. ["Stdlib.Failure"] — the coarse triage key *)
  site : int;
      (** FNV-1a hash of the run's first-occurrence outcome sequence at
          the moment of the crash — a callsite identity that
          distinguishes the same exception raised from different places
          in the subject, and is stable between full and resumed
          executions of the same input *)
  detail : string;  (** [Printexc.to_string] of the exception *)
}
(** Identity of a subject crash. Two crashes with equal [(exn, site)]
    are duplicates for triage purposes. *)

type verdict =
  | Accepted  (** the parser consumed the input without error: exit 0 *)
  | Rejected of string  (** first parse error: non-zero exit *)
  | Hang  (** fuel exhausted, the analogue of the paper's infinite loop *)
  | Crash of crash
      (** the subject raised something other than {!Ctx.Reject} /
          {!Ctx.Out_of_fuel} — the analogue of a SIGSEGV in the paper's
          C subjects. Contained, never propagated. *)

type run = {
  input : string;
  verdict : verdict;
  comparisons : Comparison.t array;  (** in event order *)
  coverage : Coverage.t;
  trace : int array;
      (** outcome ids in recording order, with multiplicities; empty
          unless run with [~track_trace:true] *)
  touched : int array;
      (** distinct outcome ids in first-occurrence order — the run's
          path identity *)
  eof_access : bool;
  max_depth : int;
  frames : Frame.event array;
      (** empty unless run with [~track_frames:true] *)
}

val exec :
  registry:Site.registry ->
  parse:(Ctx.t -> unit) ->
  ?fuel:int ->
  ?track_comparisons:bool ->
  ?track_trace:bool ->
  ?track_frames:bool ->
  string ->
  run
(** Run the parser on the given input. The exception contract:
    {!Ctx.Reject} maps to [Rejected], {!Ctx.Out_of_fuel} to [Hang], and
    {e every other exception} the subject raises — [Failure],
    [Invalid_argument], [Stack_overflow], anything — is contained as
    [Crash] with the observations accumulated up to the raise. A
    misbehaving subject can therefore never abort a campaign; crashes
    are ordinary verdicts that the fuzzer triages and keeps fuzzing
    past. The same containment holds inside a distributed worker
    process: a subject exception becomes a [Crash] in that shard's
    result, exactly as it would in-process. What this contract does
    {e not} cover is the worker process itself dying (a signal, an
    [exit], OOM) — that is handled one level up by the coordinator,
    which replays the whole shard; determinism makes the replay
    indistinguishable from a run that never died. [track_trace]
    (default false) fills the [trace] field; see {!Ctx.make}. It is
    {!Ctx.make}, then {!run_in}, then {!package}. *)

val run_in : Ctx.t -> parse:(Ctx.t -> unit) -> verdict
(** [run_in ctx ~parse] runs the parser on the context's input — a
    context fresh from {!Ctx.make}, or one readied by {!Ctx.reset} — and
    returns the verdict under {!exec}'s exception contract. The
    observations stay in [ctx]: {!package} copies them into a run, and a
    {!View} reads them in place. *)

val package : Ctx.t -> verdict -> run
(** The context's observations, copied into an owned run. *)

val accepted : run -> bool

val crash_id : crash -> string
(** ["<exn>@<site-hex>"] — the dedup key as a printable label. *)

(** {1 Incremental execution}

    A machine-form subject ({!Machine.recognizer}) can be executed with a
    journal of its read boundaries. Each boundary can be materialised into
    a {!snapshot} — the parser's pending step plus the observation state
    accumulated over the prefix — and a snapshot can be {!resume}d
    against any input that extends the same prefix, producing a run
    bit-identical to full re-execution while only executing the suffix.

    The fuzzer does not use this engine: every execution of a campaign
    is a cold parse in one reused context, which outruns a resume on
    every subject, and every subject parses in direct style, so none
    has a machine form to journal. The engine stays because the
    campaign benchmark ([perfbench/main.ml]) names it: its traced run
    times a snapshot and a resume per replayed execution of a subject
    with a machine form. [test_instr] runs it on a test-local
    recognizer, which also keeps {!Ctx.restore} honest.

    Materialising a snapshot shares the run's packaged arrays (no
    copy); {!resume} copies the comparison records below the boundary
    into the new context's columns, borrows the other buffers
    copy-on-write, and rebuilds the dense coverage presence map from
    the touched prefix. *)

type journal
(** Read-boundary journal of one journaled execution. *)

type snapshot
(** A suspended parse: everything needed to continue a run from the
    first observation of input position {!snapshot_pos} under a new
    suffix. Immutable and multi-shot — one snapshot can serve any number
    of children sharing the prefix. *)

val exec_machine :
  registry:Site.registry ->
  machine:Machine.recognizer ->
  ?fuel:int ->
  ?track_comparisons:bool ->
  ?track_trace:bool ->
  ?track_frames:bool ->
  string ->
  run * journal
(** Run a machine-form subject, journaling every read boundary. The
    [run] is identical to what {!exec} would produce over a parse that
    answers each [Peek] with {!Ctx.peek} and each [Next] with
    {!Ctx.next} — including the crash-containment contract: a raising
    continuation yields a [Crash] run (journaled up to the last
    boundary before the raise), never an escaped exception; defaults
    match {!Ctx.make}. *)

val snapshot_at : journal -> int -> snapshot option
(** [snapshot_at journal p] is the suspension at the first read of input
    position [p] — the state after the parser observed exactly positions
    [0..p-1] — or [None] if the run never read position [p] (it rejected
    or accepted earlier, or [p] lies below a resumed run's own start).
    O(log boundaries), no copying. *)

val snapshot_pos : snapshot -> int
(** Length of the input prefix the snapshot depends on. *)

val resume : snapshot -> string -> run * journal
(** [resume snap input] continues the suspended parse on [input], which
    must extend the snapshot's prefix: [String.length input >=
    snapshot_pos snap] (checked) and the first [snapshot_pos snap]
    characters equal to the parent's (the caller's responsibility — the
    prefix cache guarantees it by keying on the prefix). The resulting
    run (verdict, comparisons, coverage, trace, touched, path identity)
    is bit-identical to a full execution of [input]. The returned
    journal covers the newly executed suffix, so children of the child
    can be snapshotted in turn. *)

(** {1 Direct-mapped prefix cache}

    Maps a prefix string to the snapshot suspended at its end
    (snapshots are registry-specific); a fixed table in which each
    prefix has exactly one slot, its {!Pdf_util.Fnv} hash modulo the
    slot count, with accounting counters. Nothing in the library uses
    it any more; it stays while the campaign benchmark names it. *)

module Cache : sig
  type t

  type stats = {
    mutable hits : int;
    mutable misses : int;  (** lookups that found nothing *)
    mutable evictions : int;  (** stores that replaced a resident entry *)
    mutable chars_saved : int;
        (** total prefix characters whose re-execution a hit avoided *)
  }

  val create : ?bound:int -> unit -> t
  (** [bound] (default 8192) caps the number of cached prefixes: the
      table has the largest power of two of slots within it (one slot
      when [bound < 2]). *)

  val find : t -> string -> snapshot option
  (** Lookup by exact prefix; updates the hit/miss/saved counters. *)

  val find_prefix : t -> string -> len:int -> snapshot option
  (** [find_prefix t s ~len] is [find t (String.sub s 0 len)] without
      allocating the substring: the prefix is hashed in place and the
      resident entry verified by in-place comparison. *)

  val mem_prefix : t -> string -> len:int -> bool
  (** Is the first [len] characters of [s] cached? Allocation-free, and
      with no counter side effects, so a caller can probe before
      materialising a prefix for {!store}. *)

  val store : t -> string -> snapshot -> unit
  (** Insert into the prefix's slot. An entry for another prefix there
      is replaced, which counts as an eviction; an existing entry for
      the same prefix is kept (first-in wins — the snapshots are
      equivalent by construction). *)

  val stats : t -> stats
  val length : t -> int
  (** Occupied slots. *)
end

(** {1 Derived observations used by the search}

    Over a packaged run's records here, and over a context's columns in
    {!View}. *)

val substitution_index : run -> int option
(** The position of the first invalid character: the rightmost index with
    a {e failed} comparison, falling back to the rightmost index of any
    comparison when every comparison succeeded; [None] for an empty
    comparison log. Substitutions are applied here. *)

val comparisons_at : run -> index:int -> Comparison.t list
(** All comparison events touching input position [index], in trace
    order. With [index = substitution_index run] this is
    {!comparisons_at_last_index} without the extra index scan — for
    callers that already computed the index. *)

val comparisons_at_last_index : run -> Comparison.t list
(** All comparison events touching {!substitution_index}, the
    substitution candidates of Algorithm 1's [addInputs]. *)

val coverage_up_to : run -> index:int -> Coverage.t
(** {!coverage_up_to_last_index} with the substitution index supplied by
    the caller instead of recomputed. *)

val coverage_up_to_last_index : run -> Coverage.t
(** Coverage restricted to what was covered before the first comparison
    of the last compared character — §3.1's "covered branches up to the
    last accepted character", which keeps error-handling code from
    attracting the search. Computed from the first-occurrence prefix of
    [touched], so it does not require [~track_trace:true]. *)

val avg_stack_of_last_two : run -> float
(** Mean stack depth of the last two comparison events (§3.1's
    [avgStackSize]); 0 when there are no comparisons. *)

val path_hash : run -> int
(** Hash of the sequence of first occurrences of outcomes in the trace
    (the [touched] field) — the "path" identity used to rank inputs
    exploring novel paths higher. Allocation-free. *)

(** {1 Views}

    What the search loop reads of an execution, in place: the input,
    the verdict, and a context's comparison columns and touched buffer
    with their counts. A campaign owns one view and refills it from its
    reused context after every execution ({!View.of_ctx}); refilling
    allocates nothing. A view is valid until its context records
    again or is reset. *)

module View : sig
  type t = private {
    mutable input : string;
    mutable verdict : verdict;
    mutable comparisons : Comparison.columns;
        (** in event order; only the first [n_comparisons] are the run's *)
    mutable n_comparisons : int;
    mutable touched : int array;
        (** first-occurrence order; only the first [n_touched] are the
            run's *)
    mutable n_touched : int;
  }

  val create : unit -> t
  (** An empty view, to be filled. *)

  val of_ctx : t -> Ctx.t -> verdict -> unit
  (** Point the view at the context's input and buffers, as {!run_in}
      left them. A buffer field is written only when the context has
      moved to a new buffer since the last fill. *)

  val substitution_index : t -> int
  (** {!Runner.substitution_index}, with -1 for an empty log. *)

  val coverage_up_to : t -> index:int -> Coverage.t
  val avg_stack_of_last_two : t -> float
  val path_hash : t -> int

  val coverage : t -> Coverage.t
  (** The run's coverage, built anew for the asking. *)

  val new_outcomes : t -> baseline:Coverage.t -> int
  (** [Coverage.new_against (coverage v) ~baseline], without building
      the coverage. *)
end

val pp_verdict : Format.formatter -> verdict -> unit
