(** Running a subject parser on one input and packaging the observations.

    This is the harness boundary every fuzzer goes through. One
    execution of the instrumented program in the paper (exit status,
    comparison log, coverage, trace, EOF flag) is one cold parse of the
    whole input: {!exec} runs it in a fresh context and packages an
    owned {!run}, and a campaign reruns one context ({!Ctx.reset}, then
    {!run_in}) and reads it in place through a {!View}. No execution
    starts from another's state. *)

type crash = {
  exn : string;
      (** the exception's constructor name ([Printexc.exn_slot_name]),
          e.g. ["Stdlib.Failure"] — the coarse triage key *)
  site : int;
      (** FNV-1a hash of the run's first-occurrence outcome sequence at
          the moment of the crash — a callsite identity that
          distinguishes the same exception raised from different places
          in the subject, and is the same on every execution of the
          same input *)
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

(** {1 Retired snapshot/resume engine}

    Uninhabited stubs that the campaign benchmark still names, on a
    branch no subject can take (ROADMAP item 1 removes them). *)

type journal
type snapshot
val snapshot_at : journal -> int -> snapshot option
val resume : snapshot -> string -> run * journal

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
