(** Sets of covered outcomes, as dense bitsets.

    Outcome ids are dense within a registry, so coverage is a bit vector
    sized by the highest recorded outcome — at most
    [Site.total_outcomes]. Values are immutable; [union], [diff] and
    [new_against] are word-parallel O(words) operations, which matters
    because the fuzzers take and compare these snapshots on every
    execution. *)

type t

val empty : t
val add : int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val diff : t -> t -> t
val cardinal : t -> int
val is_empty : t -> bool
val of_list : int list -> t

val of_array : ?len:int -> int array -> t
(** [of_array ~len a] is the set of the first [len] (default all)
    elements of [a] — the bulk constructor the run harness uses to turn
    a trace prefix or a touched-outcome buffer into coverage without
    element-by-element rebuilding. *)

val to_list : t -> int list
(** In increasing order. *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] counts outcomes present in both sets — a
    word-parallel AND-popcount, allocation-free. The incremental queue
    re-rank uses it to decide whether a candidate's score depends on a
    freshly covered delta at all. *)

val new_against : t -> baseline:t -> int
(** [new_against c ~baseline] counts outcomes in [c] absent from
    [baseline] — the [size(branches \ vBr)] term of the heuristic. *)

val new_in : int array -> len:int -> baseline:t -> int
(** [new_in a ~len ~baseline] is [new_against (of_array ~len a)
    ~baseline] for an [a] whose first [len] elements are distinct, such
    as a run's [touched] buffer, without building the set. *)

val percent : t -> Site.registry -> float
(** Covered outcomes as a percentage of the registry's total. *)

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is true when every outcome in [a] is also in [b]. *)
