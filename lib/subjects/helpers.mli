(** Shared lexing helpers for the instrumented subject parsers. Every
    helper routes character examination through the tracked comparison
    operations so the instrumentation sees each decision. *)

module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site

(** {1 Comparison slots}

    Constructors for {!Pdf_instr.Ctx.slot}: each freezes a branch site's
    two outcome ids together with the comparison-event kind the tracked
    [Ctx] operation would build per call, so the slot operations
    ([Ctx.eq_slot], [Ctx.in_range_slot], …) record the same observations
    without the per-call site dispatch and kind allocation. Build a slot
    once, where the site is defined, and pass the set or range it was
    built with to the slot operation. *)

val slot_eq : Site.t -> char -> Ctx.slot
val slot_range : Site.t -> char -> char -> Ctx.slot
val slot_set : Site.t -> label:string -> Pdf_util.Charset.t -> Ctx.slot
val slot_one_of : Site.t -> string -> Ctx.slot

(** {1 Direct-style helpers} *)

val skip_set : Ctx.t -> Ctx.slot -> Pdf_util.Charset.t -> unit
(** Consume characters while they belong to the set, which must be the
    one the {!slot_set} slot was built with. Stops at EOF. *)

val read_set : Ctx.t -> Ctx.slot -> Pdf_util.Charset.t -> Pdf_taint.Tstring.t
(** Consume and collect characters while they belong to the set. *)

val expect : Ctx.t -> Site.t -> char -> unit
(** Consume the next character, which must equal the expectation;
    otherwise reject (also on EOF). *)

val peek_is : Ctx.t -> Site.t -> char -> bool
(** Tracked test of the next character without consuming it; false at
    EOF (recording the EOF access). *)

val eat_if : Ctx.t -> Site.t -> char -> bool
(** [peek_is] and consume on success. *)

(** {1 Staged combinators}

    Staged continuation-style counterparts of the helpers above, for
    machine-form (resumable) parsers. A parser fragment is a [k];
    sequencing is by continuation, and every input observation goes
    through a {!Pdf_instr.Machine} step so the driver can journal read
    boundaries. Fragments built only from these combinators satisfy the
    machine discipline: no direct [Ctx.peek]/[next]/[at_eof], and no
    [Ctx.t] captured across a step.

    {b Staging rule.} A combinator does its construction work when it is
    applied to its arguments, not when the resulting fragment meets a
    context: step nodes, reject strings, comparison slots and boolean
    dispatch targets are built once, at construction, and [with_frame]
    and [fix] apply their bodies once, at construction. A parser is
    therefore assembled at module initialisation (or, for a truly
    recursive nonterminal, once per entry), and running it allocates no
    step nodes on the hot loops. A body that needs a per-application
    effect must return a closure performing it (e.g.
    [fun ctx -> Ctx.tick ctx; node ctx]). *)
module K : sig
  type k = Ctx.t -> Pdf_instr.Machine.step

  val stop : k
  (** Accept: finish the parse. *)

  val peek : (Pdf_taint.Tchar.t option -> k) -> k
  (** Observe the next character without consuming it. The step node is
      built once; the continuation runs per application. *)

  val next : (Pdf_taint.Tchar.t option -> k) -> k
  (** Consume and observe the next character. *)

  val skip : k -> k
  (** Consume the next character, ignoring it (use after a peek decided). *)

  val with_frame : Site.t -> (k -> k) -> k -> k
  (** [with_frame site body k]: run [body] one stack level deeper; the
      frame is exited before [k] runs. [body] is applied once, at
      construction. *)

  val fix : (k -> k) -> k
  (** [fix (fun self -> body)] constructs a self-referential fragment
      once: [self] dispatches back to the constructed body. Use for loops
      whose continuation set is fixed (line loops, record cycles); truly
      recursive nonterminals should remain functions that re-enter per
      application. *)

  val skip_while : (Pdf_taint.Tchar.t -> Ctx.t -> bool) -> k -> k
  (** Allocation-free character-skipping loop: two step nodes tied into
      a cycle. The test must itself be the tracked observation
      ([Ctx.in_range_slot], [Ctx.in_set_slot], …); it runs once per
      character. *)

  val skip_set : Site.t -> label:string -> Pdf_util.Charset.t -> k -> k
  (** [skip_while] over a set-membership slot. *)

  val skip_range : Site.t -> char -> char -> k -> k
  (** [skip_while] over a character-range slot. *)

  val read_set :
    Site.t -> label:string -> Pdf_util.Charset.t -> (Pdf_taint.Tstring.t -> k) -> k
  (** Accumulating variant of [skip_set]. The accumulator makes every
      loop state distinct, so it builds a step per character — use it
      off the hot path. *)

  val reject_msgs : char -> string * string
  (** [(eof_message, mismatch_message)] for an expected character, as
      {!expect} formats them. Precompute these for productions that call
      {!expect_with} per entry. *)

  val expect : Site.t -> char -> k -> k
  (** Demand one specific character; both reject messages are formatted
      at construction. *)

  val expect_with : msg_eof:string -> msg:string -> Site.t -> char -> k -> k
  (** {!expect} with caller-precomputed messages, for productions
      constructed per entry (recursive nonterminals). *)

  val peek_is : Site.t -> char -> (bool -> k) -> k
  (** Tracked test of the next character without consuming it; [false]
      at EOF. Both continuations are forced at construction. *)

  val eat_if : Site.t -> char -> (bool -> k) -> k
  (** [peek_is] and consume on success. *)
end
