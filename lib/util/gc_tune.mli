(** GC sizing for campaign workloads.

    Campaigns allocate mostly short-lived per-execution garbage; a minor
    heap sized to the working set lets it die young instead of being
    promoted. Purely a pacing knob: results are bit-identical for every
    setting. *)

val default_minor_words : queue_bound:int -> int
(** Minor-heap size (in words) derived from the campaign's queue bound —
    32 words per potential queue slot, clamped to [256k, 4M] words. *)

val set_minor_heap : int -> unit
(** [set_minor_heap words] resizes the minor heap (no-op when [words] is
    not positive or already current). *)
