(** The fuzzer's candidate queue (Algorithm 1's [Q]), stored as columns.

    A {e group} is a set of siblings: the children of one [add_inputs]
    call, one seed, or one entry restored from a checkpoint. Siblings
    differ only in their replacement, so everything else sits once in
    the group columns: the parent input and the cut (the substitution
    index) that the children's inputs share, [parents], [avg_stack],
    [path_count], and the parent coverage with its new-coverage count
    [|parent_coverage \ vBr|].

    A queued candidate, a {e member}, is its [repl] in the replacement
    column, which holds the members in push order. Its input is
    [input[0..cut) ^ repl] and is built only when the member leaves the
    queue ({!pop}) or is looked at ({!snapshot}, {!member_data}), so a
    member costs no heap block of its own: single-character
    replacements are interned by the comparison log, and only a keyword
    replacement is a string of its own.

    A {e run} is a maximal sequence of members pushed one after another
    into one sibling group with one replacement length, and it is a
    [\[start, end)] range of the column. {!Heuristic.score_parts} reads
    the replacement only through its length, so a run's members share
    one priority under every vBr, and the heap ({!Pdf_util.Pqueue})
    holds one entry per run, not per member. Pop order is priority
    descending, then insertion order ascending, over members; since a
    run's members hold consecutive insertion numbers, no other entry's
    key falls between them, and ordering runs by their first member
    orders the members. A push extends the newest run only if it is in
    the same still-open group, has the same replacement length and no
    truncation has dropped members since the run started; otherwise it
    starts a run, and only then is it scored. Splitting a run is always
    safe; merging two is not.

    {!pop} takes the front member of the top run and leaves the run in
    place, so the heap sifts only when a run starts, empties or is
    re-ranked. {!rerank} intersects each live group's coverage with the
    delta once and re-scores only the runs of the groups whose count
    moved. {!truncate} sorts the runs (O(r log r) for [r] runs) and keeps
    whole runs in key order, then the front of the boundary run.
    Priorities are {!Heuristic.score_parts} over the columns and are
    bit-identical to {!Heuristic.score} on the member's record.

    Runs and groups are recycled through free lists; the queue holds at
    most [2 * bound + 1] members, and its run and group columns grow by
    doubling up to [2 * bound + 2] and no further. Popped and dropped
    members leave holes in the replacement column, which is compacted
    in one pass in push order when it fills: in place when less than
    half of it is live, and otherwise into one twice as long. It grows
    up to [4 * bound + 4] and no further, so each compaction leaves at
    least half of it free and appends stay amortised O(1). *)

type t

type group
(** An open or closed sibling group. Its id is recycled once the group
    is freed, so it is not a stable lineage id. *)

val create : Heuristic.variant -> bound:int -> t
(** An empty queue that scores with the variant and truncates to
    [bound] members. *)

val length : t -> int
(** The number of queued members. *)

val full : t -> bool
(** The queue holds more than [2 * bound] members: time to {!truncate}.
    Truncating with this much hysteresis keeps the sort off the
    per-push path. *)

val open_group :
  t ->
  input:string ->
  cut:int ->
  parents:int ->
  avg_stack:float ->
  path_count:int ->
  parent_coverage:Pdf_instr.Coverage.t ->
  vbr:Pdf_instr.Coverage.t ->
  group
(** Starts a sibling group whose members run [input[0..cut) ^ repl] and
    share the other arguments, counting the outcomes of
    [parent_coverage] outside [vbr]. The group stays allocated until
    {!close_group}, even if truncation drops every member pushed so far.
    Raises [Invalid_argument] unless [0 <= cut <= String.length input]. *)

val close_group : t -> group -> unit
(** Ends the group's pushes, and with them its newest run's. It is
    freed now if no member is queued, or else when its last member
    leaves. *)

val score : t -> group -> repl:string -> float
(** The priority, under the current vBr, of a member of the group with
    replacement [repl]. *)

val push : t -> group -> repl:string -> unit
(** [push q g ~repl] queues a member of the open group [g] at its
    {!score}, which it computes only when the member starts a run.
    Raises [Invalid_argument] if the queue already holds
    [2 * bound + 1] members. *)

val member_data : t -> group -> repl:string -> string
(** [input[0..cut) ^ repl] for the live group's input and cut, built
    afresh: the input of its member with replacement [repl]. *)

val pop : t -> Candidate.t option
(** Removes the best member: the front of the top run. *)

val pop_with_priority : t -> (float * Candidate.t) option
(** {!pop} with the member's stored priority. *)

val rerank : t -> delta:Pdf_instr.Coverage.t -> unit
(** vBr has grown by [delta], which must be disjoint from the vBr the
    counts were taken against. Subtracts [|coverage ∩ delta|] from each
    live group's count and re-scores the runs of the groups it
    changed. *)

val truncate : t -> unit
(** Keeps the best [bound] members and frees every run it empties. *)

val snapshot : t -> (float * Candidate.t) list
(** The queued candidates in insertion order with their priorities —
    the form a checkpoint stores. *)

val restore :
  t -> vbr:Pdf_instr.Coverage.t -> (float * Candidate.t) list -> unit
(** Queues a {!snapshot}'s entries in order, each as a group and a run
    of its own at its recorded priority, with its [data] as the group's
    input and its [repl] as the suffix after the cut. Into an empty
    queue, this rebuilds one that pops, re-ranks and truncates exactly
    as the snapshotted queue would: splitting runs changes no order.
    Raises [Invalid_argument] if an entry's [data] does not end with
    its [repl], which no queued candidate's does. *)

(** {1 Occupancy} *)

val runs : t -> int
(** Runs in the heap: one entry each. *)

val column_capacity : t -> int
(** Length of the replacement column. *)

val run_capacity : t -> int
(** Length of the run columns. *)

val group_capacity : t -> int
(** Length of the group columns. *)

val live_groups : t -> int
(** Groups allocated and not yet freed, open ones included. *)
