(** Trace sinks: where stamped events go.

    A sink is a pair of closures, so callers can compose them ({!tee})
    or buffer per-shard and merge deterministically afterwards
    ({!buffer}, used by the parallel evaluation grid). The fuzzer holds
    an optional observer; with no observer installed the hot path pays
    nothing — not even event construction. *)

type sink = { emit : Event.stamped -> unit; close : unit -> unit }

val emit : sink -> Event.stamped -> unit

val close : sink -> unit
(** Flush / finalize. Does not close underlying channels — the opener
    owns them. *)

val jsonl : out_channel -> sink
(** One event per line, flat JSON; the format {!read_file} reads
    back. *)

val chrome : out_channel -> sink
(** Converter to a Chrome [trace_event] JSON array for chrome://tracing
    and Perfetto, fed the events of a recorded trace ([trace-report
    --chrome]): executions as complete spans, valid inputs as instant
    events, coverage and queue depth as counter tracks, final phase
    totals as spans on a second thread lane. {!close} writes the
    closing bracket — forgetting it produces an unloadable file. *)

val buffer : unit -> sink * (unit -> string)
(** In-memory JSONL sink and an accessor for its contents so far. *)

val tee : sink -> sink -> sink

(** {1 Flight recorder} *)

type ring
(** A fixed-capacity ring of the most recent stamped events, for
    post-mortem dumps. Emission is one array store — no serialization —
    so the recorder can stay attached even with file tracing off. *)

val ring : int -> ring
(** [ring capacity]. Raises [Invalid_argument] on capacity <= 0. *)

val ring_sink : ring -> sink

val ring_events : ring -> Event.stamped list
(** Retained events, oldest first: the last [capacity] emitted (fewer if
    the ring never wrapped). *)

val ring_total : ring -> int
(** Events emitted over the ring's lifetime, including overwritten ones. *)

val ring_capacity : ring -> int

val dump_ring : ring -> string -> unit
(** Atomically write the retained events as JSONL to a path (via
    {!Pdf_util.Atomic_file}); a crash mid-dump never leaves a truncated
    post-mortem. *)

val read_file : string -> Event.stamped list
(** Parse a JSONL trace file; blank lines are skipped. Raises [Failure]
    with the offending line number on malformed input. *)

val normalize_line : string -> string
(** Zero the wall-clock-dependent fields ([t], any [*_ns],
    [execs_per_sec]) of one JSONL line, preserving field order — the
    structural residue that must be identical between [jobs:1] and
    [jobs:N] merged traces. Non-JSON input passes through unchanged. *)

val normalize : string -> string
(** {!normalize_line} over every line of a trace. *)
