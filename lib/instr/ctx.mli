(** Execution context of one instrumented run.

    A context bundles the input string, the instrumented input stream
    (with EOF-access detection), the coverage set and trace, the call
    stack depth, and the comparison log. Subject parsers are functions
    [Ctx.t -> unit] that read through {!peek}/{!next}, record coverage
    through {!cover}/{!branch}/{!frame}, compare input-derived data
    through the tracked comparison operations, and signal invalid input
    with {!reject}. *)

type t

exception Reject of string
(** Raised by {!reject}: the subject's equivalent of exiting non-zero on
    the first parse error. *)

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
    previous run's observations are gone: read or copy them first. A
    context from {!restore} resets to the fuel it was restored with. *)

(** {1 Snapshot marks}

    Support for suspending a run at a read boundary and resuming it —
    against a different input sharing the prefix — from an equivalent
    context. Used by {!Runner}'s incremental execution engine. *)

type mark = {
  m_comparisons : int;  (** comparison events recorded so far *)
  m_touched : int;  (** distinct outcomes covered so far *)
  m_trace : int;  (** trace entries recorded so far *)
  m_frames : int;  (** frame events recorded so far *)
  m_stack : int;
  m_max_stack : int;
  m_fuel : int;  (** fuel remaining *)
  m_eof_access : bool;
}
(** O(1) summary of the observation state at a suspension point:
    watermarks into the append-only recording buffers plus scalar run
    state. Combined with the buffer prefixes below the watermarks it
    fully determines the context at that instant. *)

val mark : t -> mark

val restore :
  registry:Site.registry ->
  mark:mark ->
  cursor:int ->
  comparisons:Comparison.t array ->
  touched:int array ->
  trace:int array ->
  frames:Frame.event array ->
  ?track_comparisons:bool ->
  ?track_trace:bool ->
  ?track_frames:bool ->
  string ->
  t
(** [restore ~registry ~mark ~cursor ~comparisons … text] is a context
    for input [text] whose observation state equals the state the parent
    run had when [mark] was taken: the comparison records below the
    mark's watermark are copied into the context's columns, the other
    recording buffers are borrowed (copy-on-write) prefixes of the given
    arrays, cut at the mark's watermarks, and the coverage presence map
    is rebuilt from the touched prefix. The arrays must come from a run
    over the same registry and must not be mutated afterwards. Cost:
    O(comparisons and outcomes recorded in the prefix). *)

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
    All return the boolean result of the comparison. *)

val eq : t -> Site.t -> Pdf_taint.Tchar.t -> char -> bool
val one_of : t -> Site.t -> Pdf_taint.Tchar.t -> string -> bool
(** Membership of the characters of the given string. *)

val in_range : t -> Site.t -> Pdf_taint.Tchar.t -> char -> char -> bool
val in_set :
  t -> Site.t -> label:string -> Pdf_taint.Tchar.t -> Pdf_util.Charset.t -> bool

(** {2 Pre-resolved slots}

    Variants of the comparison operations for the subject parsers
    ([Helpers.slot_*] in [lib/subjects] builds them): a {!slot} freezes a
    site's two outcome ids and the comparison-event kind once, where the
    site is defined, so the per-character call performs no
    [Site.outcome] dispatch and allocates no kind block. Each [_slot]
    operation records exactly the same observations as its tracked
    counterpart above (the supplied kind must match what that
    counterpart would build). *)

type slot

val slot : Site.t -> Comparison.kind -> slot

val eq_slot : t -> slot -> Pdf_taint.Tchar.t -> char -> bool
val in_range_slot : t -> slot -> Pdf_taint.Tchar.t -> char -> char -> bool
val in_set_slot : t -> slot -> Pdf_taint.Tchar.t -> Pdf_util.Charset.t -> bool
val one_of_slot : t -> slot -> Pdf_taint.Tchar.t -> string -> bool

val str_eq : t -> Site.t -> Pdf_taint.Tstring.t -> string -> bool
(** Instrumented [strcmp]-style equality: emits one character-comparison
    event per compared position, and — on a mismatch after partial
    progress into the keyword — an additional suffix event whose
    multi-character replacement is what lets the fuzzer complete
    keywords. *)

val expect_token : t -> Site.t -> at:int -> spelling:string -> matched:bool -> bool
(** Token-level expectation with taint recovery (the §7.2 proposal):
    records the branch outcome and, on mismatch, emits a comparison event
    at input position [at] whose replacement is the expected token's
    [spelling]. This restores the substitution signal that tokenization's
    broken data flow otherwise loses. Returns [matched]. *)

(** {1 Termination} *)

val reject : t -> string -> 'a
(** Abort the run: the input is invalid. *)

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
