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
    once, where the site is defined, and pass the character, set or
    range it was built with to the slot operation. *)

val slot_eq : Site.t -> char -> Ctx.slot
val slot_range : Site.t -> char -> char -> Ctx.slot
val slot_set : Site.t -> label:string -> Pdf_util.Charset.t -> Ctx.slot
val slot_one_of : Site.t -> string -> Ctx.slot

(** {1 Lexing helpers}

    Each takes a slot built by the constructor above that matches it,
    or an {!expectation}, and allocates nothing but what it returns. *)

val skip_set : Ctx.t -> Ctx.slot -> Pdf_util.Charset.t -> unit
(** Consume characters while they belong to the set, which must be the
    one the {!slot_set} slot was built with. Stops at EOF. *)

val skip_range : Ctx.t -> Ctx.slot -> char -> char -> unit
(** {!skip_set} over the range a {!slot_range} slot was built with. *)

val read_set : Ctx.t -> Ctx.slot -> Pdf_util.Charset.t -> Pdf_taint.Tstring.t
(** Consume and collect characters while they belong to the set. *)

type expectation
(** A character the parser demands next: its {!slot_eq} slot and both
    reject messages, formatted once. *)

val expectation : Site.t -> char -> expectation

val expect : Ctx.t -> expectation -> unit
(** Consume the next character, which must be the expected one;
    otherwise reject with ["expected 'c'"], or
    ["expected 'c', found end of input"] at EOF. *)

val peek_is : Ctx.t -> Ctx.slot -> char -> bool
(** Tracked test of the next character without consuming it; false at
    EOF (recording the EOF access). *)

val eat_if : Ctx.t -> Ctx.slot -> char -> bool
(** [peek_is] and consume on success. *)
