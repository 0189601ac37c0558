(** Execution context of one instrumented run.

    A context bundles the input string, the instrumented input stream
    (with EOF-access detection), the coverage set and trace, the call
    stack depth, and the comparison log. Subject parsers are functions
    [Ctx.t -> unit] that read through {!peek}/{!next}, record coverage
    through {!cover}/{!branch}/{!frame}, compare input-derived data
    through the tracked comparison operations, and signal invalid input
    with {!reject}.

    Every run parses its whole input from a clean state. A context
    serves one run ({!make}, then read it), or every run of a campaign
    ({!reset} before each); the two observe the same. *)

type t

(** {1 Verdicts} (re-exported by {!Runner}) *)

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
      (** the subject raised something other than {!Reject} /
          {!Out_of_fuel} — the analogue of a SIGSEGV in the paper's
          C subjects. Contained, never propagated. *)

exception Reject of verdict
(** Raised by {!reject}: the subject's equivalent of exiting non-zero on
    the first parse error. It carries the run's verdict, always
    [Rejected reason], built once with its {!rejection}. *)

exception Out_of_fuel
(** Raised by {!tick} when the run's fuel budget is exhausted: the
    subject's equivalent of a hang. *)

val make :
  registry:Site.registry ->
  ?fuel:int ->
  ?track_comparisons:bool ->
  ?track_trace:bool ->
  ?track_frames:bool ->
  string ->
  t
(** [make ~registry input] prepares a run. [fuel] bounds the number of
    {!tick} calls (default 100_000). [track_comparisons] (default true)
    controls whether comparison events are logged; lexical fuzzers that
    only consume coverage can turn it off, mirroring the much lighter
    instrumentation AFL needs (§4, §6.2). [track_trace] (default false)
    records the full outcome sequence with multiplicities — needed only
    by consumers that care about hit counts, such as the AFL shim's edge
    bitmap; the search heuristics work from the deduplicated
    first-occurrence order, which is always maintained. *)

val reset : t -> string -> unit
(** [reset t input] readies [t] for a run on [input], as {!make} with
    the same registry and settings would: nothing covered, every
    recording buffer empty, the cursor, the stack depth and its maximum
    at 0, the fuel back to its budget and no EOF access. The buffers
    keep their capacity, so a context reused for a whole campaign
    allocates nothing per run once they have grown. The
    previous run's observations are gone: read or copy them first. *)

(** {1 Input access} *)

val peek : t -> Pdf_taint.Tchar.t option
(** The next character without consuming it, tainted with its input
    index. [None] at end of input — and the attempt is recorded as an
    EOF access, the signal the fuzzer uses to decide the input should be
    extended. The value is {!Pdf_taint.Tchar.interned}: shared by every
    read of that position and byte, in any run and any context, so a
    read allocates nothing. *)

val next : t -> Pdf_taint.Tchar.t option
(** Consume and return the next character; [None] (and an EOF-access
    record) at end of input. *)

val pos : t -> int
val input : t -> string
val at_eof : t -> bool
(** True when all input has been consumed. Does not itself record an EOF
    access. *)

(** {1 Coverage and stack} *)

val cover : t -> Site.t -> unit
(** Record that a block site was reached. *)

val branch : t -> Site.t -> bool -> bool
(** [branch t site cond] records the branch outcome and returns [cond],
    so it wraps conditions in place: [if Ctx.branch t s (x > 0) then …]. *)

val frame : t -> Site.t -> ('a -> 'b) -> 'a -> 'b
(** [frame t site body arg] records the block site, runs [body arg]
    with the call-stack depth increased by one, and restores the depth
    afterwards, also when [body] raises: a rejection that unwinds the
    frame still logs its {!Frame.Exit}. Parsers wrap each nonterminal
    function in a frame; the resulting depth is the stack-size signal
    of the heuristic. The body gets its argument from [frame] instead
    of capturing it, so a named body costs no closure per call. *)

val enter_frame : t -> Site.t -> unit
(** Non-scoped variant of {!frame} for parsers that manage an
    explicit stack (e.g. table-driven drivers). Every {!enter_frame} must
    be balanced by one {!exit_frame}. *)

val exit_frame : t -> unit

val depth : t -> int

val tick : t -> unit
(** Consume one unit of fuel; raises {!Out_of_fuel} when exhausted. Call
    from loop heads of interpreters. *)

(** {1 Tracked comparisons}

    Each operation records the branch outcome at the given site and, when
    the compared value is tainted, appends a comparison event to the log.
    All return the boolean result of the comparison.

    Every kind an event carries comes from a {!slot}, a {!keyword} slot
    or a process-wide table of [Char_eq] kinds, all built once, so no
    comparison builds a kind. *)

val eq : t -> Site.t -> Pdf_taint.Tchar.t -> char -> bool
(** [c == expected], its kind from the shared [Char_eq] table. *)

(** {2 Pre-resolved slots}

    The comparison operations of the subject parsers ([Helpers.slot_*]
    in [lib/subjects] builds the slots): a {!slot} freezes a site's two
    outcome ids and the comparison-event kind once, where the site is
    defined, so the per-character call performs no [Site.outcome]
    dispatch and allocates no kind block. The supplied kind must be the
    one the operation compares against: [Char_eq c] for {!eq_slot}
    against [c], [Char_range (lo, hi)] for {!in_range_slot}, a
    [Char_set] of the set for {!in_set_slot} and of the string's
    characters for {!one_of_slot}. *)

type slot

val slot : Site.t -> Comparison.kind -> slot

val eq_slot : t -> slot -> Pdf_taint.Tchar.t -> char -> bool
val in_range_slot : t -> slot -> Pdf_taint.Tchar.t -> char -> char -> bool
val in_set_slot : t -> slot -> Pdf_taint.Tchar.t -> Pdf_util.Charset.t -> bool
val one_of_slot : t -> slot -> Pdf_taint.Tchar.t -> string -> bool

(** {2 Keywords} *)

type keyword
(** A keyword resolved once, where its site is defined: the site's two
    outcome ids and the [Str_eq] kind of every offset into the
    keyword. *)

val keyword : Site.t -> string -> keyword

val str_eq : t -> keyword -> from:int -> bool
(** Instrumented [strcmp]-style equality of the token [input[from,
    pos)] — the span the parser just read, which ends at the cursor —
    against the keyword, in place. Emits one character-comparison event
    per compared position, and — on a mismatch after partial progress
    into the keyword — an additional suffix event whose multi-character
    replacement is what lets the fuzzer complete keywords. A position's
    event index is the position itself, the taint of every character
    read from it. Raises [Invalid_argument] unless
    [0 <= from <= pos t]. *)

val expect_token : t -> keyword -> at:int -> matched:bool -> bool
(** Token-level expectation with taint recovery (the §7.2 proposal):
    records the branch outcome of the keyword's site and, on mismatch,
    emits a comparison event at input position [at] whose replacement is
    the keyword, the expected token's spelling. This restores the
    substitution signal that tokenization's broken data flow otherwise
    loses. Returns [matched]. *)

(** {1 Termination} *)

type rejection
(** A reject message with the {!Reject} exception and the verdict it
    yields, built once. *)

val rejection : string -> rejection
(** [rejection reason] builds the rejection that ends a run with
    [Rejected reason]. Build each where its message is defined, not per
    run. *)

val reject : t -> rejection -> 'a
(** Abort the run: the input is invalid. Raises the rejection's
    prebuilt exception, so a rejection allocates nothing. *)

(** {1 Results} (read by the run harness) *)

(** {2 In place}

    The recording buffers themselves, for a reader that is done with a
    run before the context records again or is {!reset}. Only the first
    [count] elements of a buffer are the run's; the rest is filler. *)

val comparison_count : t -> int

val comparison_columns : t -> Comparison.columns
(** The comparison log's columns. A log that outgrows them moves to
    new, larger ones, so a reader that kept them can tell by physical
    equality whether they are still the context's. *)

val touched_count : t -> int
val touched_buffer : t -> int array

(** {2 Copies} *)

val comparisons : t -> Comparison.t list
(** In event order. *)

val comparisons_array : t -> Comparison.t array
(** In event order, without an intermediate list. *)

val trace : t -> int array
(** Outcome ids in the order they were recorded; empty unless the
    context was created with [~track_trace:true]. *)

val touched : t -> int array
(** Distinct outcome ids in first-occurrence order — the run's path
    identity, maintained incrementally during execution. *)

val eof_access : t -> bool
val max_depth : t -> int

val frames : t -> Frame.event array
(** Frame enter/exit events with input positions, in order; empty unless
    the context was created with [~track_frames:true]. *)
