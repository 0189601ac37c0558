(** A small counter/histogram registry.

    Handles are cheap mutable cells resolved once by name; the hot path
    touches the cell, never the table. Histograms are
    {!Pdf_util.Stats.Histogram}s, so the snapshots of several registries
    sum into one. *)

type t

val create : unit -> t

type counter

val counter : t -> string -> counter
(** Resolve (registering on first use). Raises [Invalid_argument] if the
    name is already registered as a different instrument type. *)

val add : counter -> int -> unit

val histogram : t -> string -> Pdf_util.Stats.Histogram.t

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Pdf_util.Stats.Histogram.t) list;
}

val snapshot : t -> snapshot
(** Name-sorted, deterministic ordering. *)

val sum : snapshot list -> snapshot
(** Name by name across the snapshots: counters sum, histograms
    merge. A distributed campaign's fleet totals are the sum of its
    shards' final snapshots. *)
