(** AFL-style edge-coverage bitmap.

    Execution traces are folded into a fixed-size map indexed by a hash
    of (previous block, current block); hit counts are classified into
    AFL's logarithmic buckets so loop iteration counts only matter
    coarsely. A fuzzing queue keeps an input exactly when its classified
    map lights up bits not yet in the accumulated "virgin" map.

    A single run touches only as many edges as its trace is long, so
    per-run maps are sparse lists built through a reusable {!builder} —
    the fuzzer executes hundreds of thousands of runs and must not zero
    64 KB per run. *)

type t
(** The dense accumulated ("virgin") map. *)

type sparse = (int * int) list
(** A single run's classified edges: (cell index, classified count). *)

type builder

val create : unit -> t
val builder : unit -> builder

val sparse_of_trace : builder -> int array -> sparse
(** Fold an outcome-id trace into classified sparse edges. The builder is
    reusable immediately afterwards. *)

val new_bits : virgin:t -> sparse -> bool
(** Does the run contain any classified bit absent from [virgin]? *)

val merge : into:t -> sparse -> unit
(** Accumulate a run into the virgin map. *)

val union : t -> t -> t
(** Bitwise union of two virgin maps, into a fresh map. Commutative,
    associative and idempotent — the merge a distributed campaign uses
    to combine per-worker AFL maps in any grouping or arrival order. *)

val equal : t -> t -> bool

val count_nonzero : t -> int
