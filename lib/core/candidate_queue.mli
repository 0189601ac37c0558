(** The fuzzer's candidate queue (Algorithm 1's [Q]), stored as columns.

    A queued candidate occupies a {e slot}: its [data] and [repl]
    strings, [parents], [path_count] and [avg_stack] sit in parallel
    arrays indexed by slot id, and an inner {!Pdf_util.Pqueue} orders
    the slot ids by priority, with each entry's [aux] holding the slot's
    group id. A queued candidate therefore costs one heap block, its
    [data] string, plus its [repl] when that is longer than one
    character (single characters are interned).

    A {e group} is a set of siblings: the children of one [add_inputs]
    call, one seed, or one entry restored from a checkpoint. Siblings
    share their parent coverage, so the group stores it once, together
    with its new-coverage count [|parent_coverage \ vBr|]. That count is
    the only part of a priority that depends on vBr, so {!rerank}
    intersects each live group's coverage with the delta once and
    re-scores only the entries of the groups whose count moved.

    Priorities are {!Heuristic.score_parts} over the columns and are
    bit-identical to {!Heuristic.score} on the candidate's record. Pop
    order is priority descending, then insertion order ascending, as in
    {!Pdf_util.Pqueue}.

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
  t -> parent_coverage:Pdf_instr.Coverage.t -> vbr:Pdf_instr.Coverage.t -> group
(** Starts a sibling group whose members share [parent_coverage],
    counting its outcomes outside [vbr]. The group stays allocated until
    {!close_group}, even if truncation drops every member pushed so
    far. *)

val close_group : t -> group -> unit
(** Ends the group's pushes. It is freed now if no member is queued, or
    else when its last member leaves. *)

val score :
  t ->
  group ->
  data:string ->
  repl:string ->
  parents:int ->
  avg_stack:float ->
  path_count:int ->
  float
(** The priority of a would-be member of the group under the current
    vBr. *)

val push :
  t ->
  group ->
  float ->
  data:string ->
  repl:string ->
  parents:int ->
  avg_stack:float ->
  path_count:int ->
  unit
(** [push q g prio ...] queues a member of the open group [g] at [prio].
    Raises [Invalid_argument] if the queue already holds
    [2 * bound + 1] entries. *)

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
    at its recorded priority. Into an empty queue, this rebuilds one
    that pops, re-ranks and truncates exactly as the snapshotted queue
    would. *)

(** {1 Occupancy} *)

val slot_capacity : t -> int
(** Length of the slot columns. *)

val group_capacity : t -> int
(** Length of the group columns. *)

val live_groups : t -> int
(** Groups allocated and not yet freed, open ones included. *)
