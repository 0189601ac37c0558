(** Trace sinks: where stamped events go.

    A sink is a pair of closures, so callers can buffer per-shard and
    merge deterministically afterwards ({!buffer}, used by the parallel
    evaluation grid and distributed workers). The fuzzer holds
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
    events, each execution's coverage and queue depth as counter
    tracks, final phase totals as spans on a second thread lane.
    {!close} writes the closing bracket — forgetting it produces an
    unloadable file. *)

val buffer : unit -> sink * (unit -> string)
(** In-memory JSONL sink and an accessor for its contents so far. *)

val read_file : string -> Event.stamped list
(** Parse a JSONL trace file. Blank lines are skipped, and so are lines
    of the sixteen event kinds that older builds emitted from the
    search loop, the prefix cache, the campaign coordinator, the live
    status line or the fault hook and this one no longer has, so their
    traces still load. Raises [Failure] with the
    offending line number on malformed input, including a line of any
    other unknown kind. *)

val normalize_line : string -> string
(** Zero the wall-clock-dependent fields ([t], any [*_ns],
    [execs_per_sec]) of one JSONL line, preserving field order — the
    structural residue that must be identical between [jobs:1] and
    [jobs:N] merged traces. Non-JSON input passes through unchanged. *)

val normalize : string -> string
(** {!normalize_line} over every line of a trace. *)
