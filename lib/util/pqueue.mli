(** Mutable max-priority queue over float priorities.

    The heap under the pFuzzer candidate queue (Algorithm 1), which
    stores run ids here and keeps the candidates in its own columns, and
    under the KLEE baseline's frontier. Pop order is priority
    descending, then insertion order ascending: every entry gets a
    fresh insertion number when pushed, so the order is total. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q prio x] inserts [x] with priority [prio]. *)

val pop : 'a t -> 'a option
(** Removes and returns an element with maximal priority. Ties are broken
    by insertion order (earlier insertions first), which keeps runs
    deterministic. *)

val top : 'a t -> 'a
(** The element {!pop} would return, left in place. Raises
    [Invalid_argument] on an empty queue. *)

val top_priority : 'a t -> float
(** The priority of {!top}. Raises [Invalid_argument] on an empty
    queue. *)

val update : 'a t -> ('a -> float option) -> unit
(** [update q f] re-scores the entries: [f] returns [Some prio] to give
    an entry a new priority or [None] to leave it untouched. The heap is
    restored only when a priority actually changed. Entries keep their
    insertion numbers, so tie-breaking is unaffected, and provided
    [None] is only returned when the recomputed priority would equal the
    stored one, the result is the heap a re-score of every entry would
    give. *)

val iter_ranked : ('a -> unit) -> 'a t -> unit
(** [iter_ranked f q] calls [f] on every entry in the order {!pop}
    would return them. It sorts the heap's array in place, which leaves
    a valid heap, and allocates nothing. [f] must not change [q]. *)

val drop_worst : 'a t -> int -> unit
(** [drop_worst q n] truncates the queue to at most [n] entries, discarding
    lowest-priority ones. Used to bound memory in long runs. *)

val snapshot : 'a t -> (float * 'a) list
(** The pending entries in insertion order (oldest first) with their
    current priorities. *)
