(** Mutable max-priority queue over float priorities.

    The heap under the pFuzzer candidate queue (Algorithm 1), which
    stores slot ids here and keeps the candidates in its own columns.
    Each entry carries an int [aux] beside its value; the candidate
    queue puts the slot's sibling-group id there, so that when a valid
    input is found, {!update} re-scores only the entries whose group's
    new coverage moved — the algorithm's re-prioritisation of all
    pending entries, without re-running them. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : ?aux:int -> 'a t -> float -> 'a -> unit
(** [push q prio x] inserts [x] with priority [prio]. [aux] (default 0)
    is caller-owned scratch stored with the entry and handed back by
    {!update} — the queue never interprets it. *)

val pop : 'a t -> 'a option
(** Removes and returns an element with maximal priority. Ties are broken
    by insertion order (earlier insertions first), which keeps runs
    deterministic. *)

val pop_with_priority : 'a t -> (float * 'a) option
(** Like {!pop}, also returning the element's stored priority — the
    observation the correctness harness replays against its queue
    model. *)

val peek : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** Iterates over all pending elements in unspecified order. *)

val rerank : 'a t -> ('a -> float) -> unit
(** [rerank q f] recomputes every pending element's priority with [f] and
    restores the heap invariant — the queue re-evaluation step performed
    when a new valid input extends the covered-branch set. *)

val update : 'a t -> ('a -> aux:int -> (float * int) option) -> unit
(** Selective {!rerank}: [f] sees each entry's value and stored [aux]
    and returns [Some (prio, aux)] to update it or [None] to leave it
    untouched. The heap invariant is restored only when a priority
    actually changed. Provided [None] is only returned when the
    recomputed priority would equal the stored one, the resulting heap
    state is bit-identical to a full [rerank] — entries keep their
    insertion order, so tie-breaking is unaffected. *)

val drop_worst : 'a t -> int -> unit
(** [drop_worst q n] truncates the queue to at most [n] entries, discarding
    lowest-priority ones. Used to bound memory in long runs. *)

val to_list : 'a t -> (float * 'a) list
(** Snapshot in unspecified order. *)

val snapshot : 'a t -> (float * 'a) list
(** Snapshot of the pending entries in insertion order (oldest first)
    with their current priorities. Unlike {!to_list} this is a total
    order the queue's tie-breaking can be checked against. *)
