(** The fuzzer's candidate queue (Algorithm 1's [Q]), stored as columns.

    A {e group} is a set of siblings: the children of one [add_inputs]
    call, one seed, or one entry restored from a checkpoint. Siblings
    differ only in their replacement, so everything else sits once in
    the group columns: the parent input and the cut (the substitution
    index) that the children's inputs share, [parents], [avg_stack],
    [path_count], and the parent coverage with its new-coverage count
    [|parent_coverage \ vBr|].

    A queued candidate occupies a {e slot}, which holds only its [repl]
    and its group id. Its input is [input[0..cut) ^ repl] and is built
    only when the candidate leaves the queue ({!pop}) or is looked at
    ({!snapshot}, {!member_data}). A queued candidate therefore costs no
    heap block of its own: single-character replacements are interned
    by the comparison log, and only a keyword replacement is a string of
    its own.

    The new-coverage count is the only part of a priority that depends
    on vBr, so {!rerank} intersects each live group's coverage with the
    delta once and re-scores only the entries of the groups whose count
    moved. Priorities are {!Heuristic.score_parts} over the columns and
    are bit-identical to {!Heuristic.score} on the candidate's record.
    Pop order is priority descending, then insertion order ascending, as
    in {!Pdf_util.Pqueue}, which orders the slot ids with each entry's
    [aux] holding the slot's group id.

    Slots and groups are recycled through free lists. The queue holds at
    most [2 * bound + 1] entries, and its slot and group columns grow by
    doubling up to [2 * bound + 2] and no further. *)

type t

type group
(** An open or closed sibling group. Its id is recycled once the group
    is freed, so it is not a stable lineage id. *)

val create : Heuristic.variant -> bound:int -> t
(** An empty queue that scores with the variant and truncates to
    [bound] entries. *)

val length : t -> int

val full : t -> bool
(** The queue holds more than [2 * bound] entries: time to {!truncate}.
    Truncating with this much hysteresis keeps selection off the
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
(** Ends the group's pushes. It is freed now if no member is queued, or
    else when its last member leaves. *)

val score : t -> group -> repl:string -> float
(** The priority, under the current vBr, of a would-be member of the
    group with replacement [repl]. *)

val push : t -> group -> float -> repl:string -> unit
(** [push q g prio ~repl] queues a member of the open group [g] at
    [prio]. Raises [Invalid_argument] if the queue already holds
    [2 * bound + 1] entries. *)

val member_data : t -> group -> repl:string -> string
(** [input[0..cut) ^ repl] for the live group's input and cut, built
    afresh: the input of its member with replacement [repl]. *)

val pop : t -> Candidate.t option
(** Removes the best entry and frees its slot. *)

val pop_with_priority : t -> (float * Candidate.t) option
(** {!pop} with the entry's stored priority. *)

val rerank : t -> delta:Pdf_instr.Coverage.t -> unit
(** vBr has grown by [delta], which must be disjoint from the vBr the
    counts were taken against. Subtracts [|coverage ∩ delta|] from each
    live group's count and re-scores the members of the groups it
    changed. *)

val truncate : t -> unit
(** Keeps the best [bound] entries and frees every slot it drops. *)

val snapshot : t -> (float * Candidate.t) list
(** The queued candidates in insertion order with their priorities —
    the form a checkpoint stores. *)

val restore :
  t -> vbr:Pdf_instr.Coverage.t -> (float * Candidate.t) list -> unit
(** Queues a {!snapshot}'s entries in order, each as a group of its own
    at its recorded priority, with its [data] as the group's input and
    its [repl] as the suffix after the cut. Into an empty queue, this
    rebuilds one that pops, re-ranks and truncates exactly as the
    snapshotted queue would. Raises [Invalid_argument] if an entry's
    [data] does not end with its [repl], which no queued candidate's
    does. *)

(** {1 Occupancy} *)

val slot_capacity : t -> int
(** Length of the slot columns. *)

val group_capacity : t -> int
(** Length of the group columns. *)

val live_groups : t -> int
(** Groups allocated and not yet freed, open ones included. *)
