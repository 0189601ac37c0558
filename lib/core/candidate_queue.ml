module Coverage = Pdf_instr.Coverage
module Pqueue = Pdf_util.Pqueue

type group = int

(* The group free list is threaded through [refs]: a free group's
   [refs] holds [link next], where [next] is the following free id or
   -1. [link] maps every id to a negative number and is its own inverse,
   so a live group (refs > 0) is told from a free one by sign. The run
   free list is threaded through [run_next], which a free run does not
   otherwise use. *)
let[@inline] link next = -2 - next

type t = {
  variant : Heuristic.variant;
  bound : int;
  cap : int;  (* 2 * bound + 2: no run or group column grows past this *)
  heap : int Pqueue.t;  (* one entry per run: the run id *)
  mutable members : int;
  (* The replacement column: every queued member's [repl], in push
     order. Positions at or past [tail] are unused; below it, positions
     outside every run are popped or dropped members, cleared to [""]
     and reclaimed by the next compaction. *)
  mutable repl : string array;
  mutable tail : int;
  (* Run columns. A run's members are [repl.(run_start) ..
     repl.(run_end - 1)]. [run_prev] and [run_next] link the live runs in
     column order, from [oldest] to [newest]. [open_run] is the run a
     push may extend, or -1: it is [newest], its group is still open,
     its [run_end] is [tail], and no truncation has dropped members
     since it started. *)
  mutable run_group : int array;
  mutable run_start : int array;
  mutable run_end : int array;
  mutable run_prev : int array;
  mutable run_next : int array;
  mutable runs_used : int;
  mutable free_run : int;
  mutable oldest : int;
  mutable newest : int;
  mutable open_run : int;
  (* Group columns. Groups below [groups_used] have been handed out at
     least once; the rest of each column is unused capacity. A member's
     input is [input.(g)[0 .. cut.(g)) ^ repl]. [refs] counts the
     group's live runs, plus one while it is open. [moved] is the
     re-rank epoch at which [new_cov] last changed. *)
  mutable input : string array;
  mutable cut : int array;
  mutable parents : int array;
  mutable avg_stack : float array;
  mutable path_count : int array;
  mutable coverage : Coverage.t array;
  mutable new_cov : int array;
  mutable refs : int array;
  mutable moved : int array;
  mutable groups_used : int;
  mutable free_group : int;
  mutable live_groups : int;
  mutable epoch : int;
}

let create variant ~bound =
  (* A negative bound truncates to nothing, as a bound of zero does. *)
  let bound = Int.max 0 bound in
  {
    variant;
    bound;
    cap = (2 * bound) + 2;
    heap = Pqueue.create ();
    members = 0;
    repl = [||];
    tail = 0;
    run_group = [||];
    run_start = [||];
    run_end = [||];
    run_prev = [||];
    run_next = [||];
    runs_used = 0;
    free_run = -1;
    oldest = -1;
    newest = -1;
    open_run = -1;
    input = [||];
    cut = [||];
    parents = [||];
    avg_stack = [||];
    path_count = [||];
    coverage = [||];
    new_cov = [||];
    refs = [||];
    moved = [||];
    groups_used = 0;
    free_group = -1;
    live_groups = 0;
    epoch = 0;
  }

let length t = t.members
let full t = t.members > 2 * t.bound
let runs t = Pqueue.length t.heap
let column_capacity t = Array.length t.repl
let run_capacity t = Array.length t.run_start
let group_capacity t = Array.length t.refs
let live_groups t = t.live_groups

(* Doubling, clamped to [limit]. *)
let next_capacity ~limit len =
  if len >= limit then invalid_arg "Candidate_queue: capacity exhausted";
  Int.min limit (Int.max 16 (2 * len))

let resize a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc_group t =
  t.live_groups <- t.live_groups + 1;
  if t.free_group >= 0 then begin
    let g = t.free_group in
    t.free_group <- link t.refs.(g);
    g
  end
  else begin
    if t.groups_used = Array.length t.refs then begin
      let n = next_capacity ~limit:t.cap t.groups_used in
      t.input <- resize t.input n "";
      t.cut <- resize t.cut n 0;
      t.parents <- resize t.parents n 0;
      t.avg_stack <- resize t.avg_stack n 0.0;
      t.path_count <- resize t.path_count n 0;
      t.coverage <- resize t.coverage n Coverage.empty;
      t.new_cov <- resize t.new_cov n 0;
      t.refs <- resize t.refs n 0;
      t.moved <- resize t.moved n 0
    end;
    let g = t.groups_used in
    t.groups_used <- g + 1;
    g
  end

let release t g =
  let r = t.refs.(g) - 1 in
  if r > 0 then t.refs.(g) <- r
  else begin
    t.input.(g) <- "";
    t.coverage.(g) <- Coverage.empty;
    t.refs.(g) <- link t.free_group;
    t.free_group <- g;
    t.live_groups <- t.live_groups - 1
  end

(* A run of the group [g] holding the one member at column position
   [i], linked in as the newest run. *)
let alloc_run t g i =
  let r =
    if t.free_run >= 0 then begin
      let r = t.free_run in
      t.free_run <- t.run_next.(r);
      r
    end
    else begin
      if t.runs_used = Array.length t.run_start then begin
        let n = next_capacity ~limit:t.cap t.runs_used in
        t.run_group <- resize t.run_group n 0;
        t.run_start <- resize t.run_start n 0;
        t.run_end <- resize t.run_end n 0;
        t.run_prev <- resize t.run_prev n 0;
        t.run_next <- resize t.run_next n 0
      end;
      let r = t.runs_used in
      t.runs_used <- r + 1;
      r
    end
  in
  t.run_group.(r) <- g;
  t.run_start.(r) <- i;
  t.run_end.(r) <- i + 1;
  t.run_prev.(r) <- t.newest;
  t.run_next.(r) <- -1;
  if t.newest >= 0 then t.run_next.(t.newest) <- r else t.oldest <- r;
  t.newest <- r;
  t.refs.(g) <- t.refs.(g) + 1;
  r

(* Unlinks an empty run, which the heap no longer holds. *)
let free_run t r =
  let prev = t.run_prev.(r) and next = t.run_next.(r) in
  if prev >= 0 then t.run_next.(prev) <- next else t.oldest <- next;
  if next >= 0 then t.run_prev.(next) <- prev else t.newest <- prev;
  if t.open_run = r then t.open_run <- -1;
  t.run_next.(r) <- t.free_run;
  t.free_run <- r;
  release t t.run_group.(r)

(* Moves every live member to the front of [dst], run by run in column
   order, which keeps each run contiguous and [open_run] ending at the
   new [tail]. [dst] may be the column itself: no member moves up. *)
let compact t dst =
  let d = ref 0 and r = ref t.oldest in
  while !r >= 0 do
    let s = t.run_start.(!r) and n = t.run_end.(!r) - t.run_start.(!r) in
    Array.blit t.repl s dst !d n;
    t.run_start.(!r) <- !d;
    d := !d + n;
    t.run_end.(!r) <- !d;
    r := t.run_next.(!r)
  done;
  if dst == t.repl then Array.fill dst !d (t.tail - !d) "" else t.repl <- dst;
  t.tail <- !d

(* Room for one more member at [tail]. A full column is compacted in
   place when less than half of it is live, and otherwise into one
   twice as long, up to [2 * cap]. The queue holds at most [2 * bound]
   members when a push asks for room, so less than half of a column of
   [2 * cap] is ever live, and each compaction leaves at least half the
   column free: appends stay amortised O(1). *)
let reserve t =
  let len = Array.length t.repl in
  if t.tail = len then
    compact t
      (if 2 * t.members < len then t.repl
       else Array.make (next_capacity ~limit:(2 * t.cap) len) "")

let open_group t ~input ~cut ~parents ~avg_stack ~path_count ~parent_coverage
    ~vbr =
  if cut < 0 || cut > String.length input then
    invalid_arg "Candidate_queue.open_group: cut outside the input";
  let g = alloc_group t in
  t.input.(g) <- input;
  t.cut.(g) <- cut;
  t.parents.(g) <- parents;
  t.avg_stack.(g) <- avg_stack;
  t.path_count.(g) <- path_count;
  t.coverage.(g) <- parent_coverage;
  t.new_cov.(g) <- Coverage.new_against parent_coverage ~baseline:vbr;
  t.refs.(g) <- 1;
  g

let close_group t g =
  if t.open_run >= 0 && t.run_group.(t.open_run) = g then t.open_run <- -1;
  release t g

let score t g ~repl =
  let rl = String.length repl in
  Heuristic.score_parts t.variant ~new_cov:t.new_cov.(g) ~len:(t.cut.(g) + rl)
    ~repl:rl ~avg_stack:t.avg_stack.(g) ~parents:t.parents.(g)
    ~path_count:t.path_count.(g)

let append t ~repl =
  if full t then invalid_arg "Candidate_queue.push: queue is full";
  reserve t;
  let i = t.tail in
  t.repl.(i) <- repl;
  t.tail <- i + 1;
  t.members <- t.members + 1;
  i

let start_run t g i prio =
  let r = alloc_run t g i in
  Pqueue.push t.heap prio r;
  t.open_run <- r

(* A run's members share its group and replacement length, so the one
   priority [score] gives them all; extending a run leaves the heap as
   it is. *)
let push t g ~repl =
  let i = append t ~repl in
  let r = t.open_run in
  if
    r >= 0
    && t.run_group.(r) = g
    && String.length t.repl.(t.run_start.(r)) = String.length repl
  then t.run_end.(r) <- i + 1
  else start_run t g i (score t g ~repl)

(* One allocation: the prefix and the replacement blitted into a fresh
   string. [open_group] checked the cut against the input. *)
let member_data t g ~repl =
  let cut = t.cut.(g) in
  let rl = String.length repl in
  let b = Bytes.create (cut + rl) in
  Bytes.blit_string t.input.(g) 0 b 0 cut;
  Bytes.blit_string repl 0 b cut rl;
  Bytes.unsafe_to_string b

let candidate t g repl =
  {
    Candidate.data = member_data t g ~repl;
    repl;
    parents = t.parents.(g);
    parent_coverage = t.coverage.(g);
    avg_stack = t.avg_stack.(g);
    path_count = t.path_count.(g);
  }

(* Takes the front member of the top run [r]. The members of a run hold
   consecutive insertion numbers, so no other entry's key falls between
   them and the run keeps its place in the heap until it empties. *)
let take t r =
  let i = t.run_start.(r) in
  let c = candidate t t.run_group.(r) t.repl.(i) in
  t.repl.(i) <- "";
  t.members <- t.members - 1;
  if i + 1 < t.run_end.(r) then t.run_start.(r) <- i + 1
  else begin
    ignore (Pqueue.pop t.heap);
    free_run t r
  end;
  c

let pop t = if t.members = 0 then None else Some (take t (Pqueue.top t.heap))

let pop_with_priority t =
  if t.members = 0 then None
  else
    let prio = Pqueue.top_priority t.heap in
    Some (prio, take t (Pqueue.top t.heap))

(* Siblings share one coverage, so the intersection with the delta is
   taken once per live group; a run of an unmoved group then costs the
   read of its group's epoch. Untouched runs keep bit-identical
   priorities, so this equals a full re-score (see [Pqueue.update]). *)
let rerank t ~delta =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let any = ref false in
  for g = 0 to t.groups_used - 1 do
    if t.refs.(g) > 0 then begin
      let d = Coverage.inter_cardinal t.coverage.(g) delta in
      if d > 0 then begin
        t.new_cov.(g) <- t.new_cov.(g) - d;
        t.moved.(g) <- epoch;
        any := true
      end
    end
  done;
  if !any then
    Pqueue.update t.heap (fun r ->
        let g = t.run_group.(r) in
        if t.moved.(g) = epoch then Some (score t g ~repl:t.repl.(t.run_start.(r)))
        else None)

(* The best [bound] members are whole runs in key order and then the
   front of the boundary run: a run's members are consecutive in the
   members' order, best first. *)
let truncate t =
  if t.members > t.bound then begin
    t.open_run <- -1;
    let kept = ref 0 and runs = ref 0 in
    Pqueue.iter_ranked
      (fun r ->
        let s = t.run_start.(r) and e = t.run_end.(r) in
        let keep = Int.min (e - s) (t.bound - !kept) in
        Array.fill t.repl (s + keep) (e - s - keep) "";
        if keep > 0 then begin
          t.run_end.(r) <- s + keep;
          kept := !kept + keep;
          incr runs
        end
        else free_run t r)
      t.heap;
    Pqueue.drop_worst t.heap !runs;
    t.members <- !kept
  end

let snapshot t =
  List.concat_map
    (fun (prio, r) ->
      let g = t.run_group.(r) and s = t.run_start.(r) in
      List.init (t.run_end.(r) - s) (fun k -> (prio, candidate t g t.repl.(s + k))))
    (Pqueue.snapshot t.heap)

let restore t ~vbr entries =
  List.iter
    (fun (prio, (c : Candidate.t)) ->
      if not (String.ends_with ~suffix:c.repl c.data) then
        invalid_arg "Candidate_queue.restore: data does not end with repl";
      let g =
        open_group t ~input:c.data
          ~cut:(String.length c.data - String.length c.repl)
          ~parents:c.parents ~avg_stack:c.avg_stack ~path_count:c.path_count
          ~parent_coverage:c.parent_coverage ~vbr
      in
      start_run t g (append t ~repl:c.repl) prio;
      close_group t g)
    entries
