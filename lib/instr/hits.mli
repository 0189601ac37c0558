(** Mergeable branch hit-counts.

    Where {!Coverage} answers "was this outcome ever observed", hit
    counts answer "by how many executions" — the global branch
    frequencies FairFuzz-style scheduling and distributed corpus sync
    need. Counts are kept in a dense array keyed by outcome id (ids are
    dense within a registry, like {!Coverage}'s bits) and grow on
    demand.

    The merge is pointwise addition, so folding per-shard counters from
    a distributed campaign in any grouping yields the same global
    counters: [merge] is commutative and associative, and the identity
    is {!create}[ ()]. Equality and serialisation ignore trailing
    zeroes, so two counters that witnessed the same executions compare
    equal regardless of internal capacity. *)

type t

val create : unit -> t
(** A fresh all-zero counter (the merge identity). *)

val record : t -> int array -> unit
(** [record t touched] bumps the count of every outcome id in [touched]
    by one. Passing a run's [touched] array (first-occurrence outcome
    order) counts each branch once per execution that reached it —
    branch hit-counts in the FairFuzz sense, not loop iteration
    counts. *)

val record_prefix : t -> int array -> len:int -> unit
(** [record_prefix t buf ~len] is [record t] of the first [len] elements
    of [buf]: a reused context's touched buffer, read in place. *)

val merge : t -> t -> t
(** Pointwise sum, into a fresh counter. Commutative and associative;
    [merge t (create ())] equals [t]. *)

val equal : t -> t -> bool
(** Same count for every outcome id; internal capacity is ignored. *)

val to_list : t -> (int * int) list
(** Non-zero [(outcome id, count)] pairs in increasing id order — the
    canonical serialised form. *)

val of_list : (int * int) list -> t
(** Inverse of {!to_list}; duplicate ids accumulate. *)
