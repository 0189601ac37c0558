(** Execution context of one instrumented run.

    A context bundles the input string, the instrumented input stream
    (with EOF-access detection), the coverage set and trace, the call
    stack depth, and the comparison log. Subject parsers are functions
    [Ctx.t -> unit] that read through {!peek}/{!next}, record coverage
    through {!cover}/{!branch}/{!with_frame}, compare input-derived data
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
    run had when [mark] was taken: the recording buffers are borrowed
    (copy-on-write) prefixes of the given arrays, cut at the mark's
    watermarks, and the coverage presence map is rebuilt from the
    touched prefix. The arrays must come from a run over the same
    registry and must not be mutated afterwards. Cost: O(outcomes
    covered in the prefix); the buffers themselves are shared. *)

(** {1 Input access} *)

val peek : t -> Pdf_taint.Tchar.t option
(** The next character without consuming it, tainted with its input
    index. [None] at end of input — and the attempt is recorded as an
    EOF access, the signal the fuzzer uses to decide the input should be
    extended. *)

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

val with_frame : t -> Site.t -> (unit -> 'a) -> 'a
(** [with_frame t site f] records the block site, runs [f] with the
    call-stack depth increased by one, and restores the depth afterwards
    (also on exceptions). Parsers wrap each nonterminal function in a
    frame; the resulting depth is the stack-size signal of the
    heuristic. *)

val enter_frame : t -> Site.t -> unit
(** Non-scoped variant of {!with_frame} for parsers that manage an
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

    Staged variants of the comparison operations for the machine-form
    subjects' staged combinators ([Helpers.K] in [lib/subjects]):
    a {!slot} freezes a site's two outcome ids and the comparison-event
    kind at staging time, so the per-character call performs no
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

val comparisons : t -> Comparison.t list
(** In event order. *)

val comparisons_array : t -> Comparison.t array
(** In event order, without an intermediate list. *)

val coverage : t -> Coverage.t
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
