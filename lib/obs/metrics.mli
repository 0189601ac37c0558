(** A small counter/histogram registry.

    Handles are cheap mutable cells resolved once by name; the hot path
    touches the cell, never the table. Histograms are
    {!Pdf_util.Stats.Histogram}s, so registry snapshots can be merged
    across shards associatively. *)

type t

val create : unit -> t

type counter

val counter : t -> string -> counter
(** Resolve (registering on first use). Raises [Invalid_argument] if the
    name is already registered as a different instrument type. *)

val add : counter -> int -> unit

val histogram : t -> string -> Pdf_util.Stats.Histogram.t

type snapshot = {
  origin : int;
      (** which registry produced this: a shard id in distributed
          campaigns, [0] for a local run, [-1] for fleet totals *)
  clock : int;
      (** logical stamp — the execution count (or frame sequence) when
          the snapshot was taken; the fleet keeps the latest per origin *)
  counters : (string * int) list;
  histograms : (string * Pdf_util.Stats.Histogram.t) list;
}

val snapshot : ?origin:int -> ?clock:int -> t -> snapshot
(** Name-sorted, deterministic ordering. Defaults: origin 0, clock 0. *)

(** Coordinator-side fold of fleet snapshots, mirroring [Dist.Merge]:
    keyed per origin, latest clock wins (ties broken by a total
    structural order). [join] is commutative, associative and idempotent
    — duplicate and out-of-order snapshot delivery are invisible. *)
module Fleet : sig
  type nonrec t

  val empty : t
  val add : t -> snapshot -> t
  val join : t -> t -> t
  val equal : t -> t -> bool

  val totals : t -> snapshot
  (** Cross-origin aggregate: counters sum, histograms merge. The result
      has [origin = -1] and the fleet's maximum clock. *)
end
