(** A registry of named histograms.

    A handle is resolved once by name; the hot path records into the
    histogram, never into the table. The observer registers one per
    phase ([phase/<name>_ns]), and whoever holds the registry can read
    them back by the same names. *)

type t

val create : unit -> t

val histogram : t -> string -> Pdf_util.Stats.Histogram.t
(** The histogram registered under the name, registering an empty one
    on first use. *)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Pdf_util.Stats.Histogram.t) list;
}
(** A registry frozen into name-sorted plain data: the layout of a
    campaign sync frame's [metrics] field (version 6). Workers send
    [None] there, so nothing builds one; the type stays so that the
    frame layout does not change. *)
