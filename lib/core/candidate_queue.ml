module Coverage = Pdf_instr.Coverage
module Pqueue = Pdf_util.Pqueue

type group = int

(* Both free lists are threaded through an existing column: a free slot's
   [slot_group] and a free group's [refs] hold [link next], where [next]
   is the following free id or -1. [link] maps every id to a negative
   number and is its own inverse, so a live slot (group >= 0) and a live
   group (refs > 0) are told from free ones by sign. *)
let[@inline] link next = -2 - next

type t = {
  variant : Heuristic.variant;
  bound : int;
  cap : int;  (* 2 * bound + 2: no column ever grows past this *)
  heap : int Pqueue.t;  (* slot ids; each entry's aux is its slot's group *)
  (* Slot columns. Slots below [slots_used] have been handed out at
     least once; the rest of each column is unused capacity. *)
  mutable data : string array;
  mutable repl : string array;
  mutable parents : int array;
  mutable path_count : int array;
  mutable avg_stack : float array;
  mutable slot_group : int array;
  mutable slots_used : int;
  mutable free_slot : int;
  (* Group columns, laid out the same way. [refs] counts the group's
     queued members, plus one while it is open. [moved] is the re-rank
     epoch at which [new_cov] last changed. *)
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
  let bound = max 0 bound in
  {
    variant;
    bound;
    cap = (2 * bound) + 2;
    heap = Pqueue.create ();
    data = [||];
    repl = [||];
    parents = [||];
    path_count = [||];
    avg_stack = [||];
    slot_group = [||];
    slots_used = 0;
    free_slot = -1;
    coverage = [||];
    new_cov = [||];
    refs = [||];
    moved = [||];
    groups_used = 0;
    free_group = -1;
    live_groups = 0;
    epoch = 0;
  }

let length t = Pqueue.length t.heap
let full t = Pqueue.length t.heap > 2 * t.bound
let slot_capacity t = Array.length t.data
let group_capacity t = Array.length t.refs
let live_groups t = t.live_groups

(* Doubling, clamped to the cap. *)
let next_capacity t len =
  if len >= t.cap then invalid_arg "Candidate_queue: capacity exhausted";
  min t.cap (max 16 (2 * len))

let resize a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc_slot t =
  if t.free_slot >= 0 then begin
    let s = t.free_slot in
    t.free_slot <- link t.slot_group.(s);
    s
  end
  else begin
    if t.slots_used = Array.length t.data then begin
      let n = next_capacity t t.slots_used in
      t.data <- resize t.data n "";
      t.repl <- resize t.repl n "";
      t.parents <- resize t.parents n 0;
      t.path_count <- resize t.path_count n 0;
      t.avg_stack <- resize t.avg_stack n 0.0;
      t.slot_group <- resize t.slot_group n 0
    end;
    let s = t.slots_used in
    t.slots_used <- s + 1;
    s
  end

let alloc_group t =
  t.live_groups <- t.live_groups + 1;
  if t.free_group >= 0 then begin
    let g = t.free_group in
    t.free_group <- link t.refs.(g);
    g
  end
  else begin
    if t.groups_used = Array.length t.refs then begin
      let n = next_capacity t t.groups_used in
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
    t.coverage.(g) <- Coverage.empty;
    t.refs.(g) <- link t.free_group;
    t.free_group <- g;
    t.live_groups <- t.live_groups - 1
  end

let free_slot t s =
  let g = t.slot_group.(s) in
  t.data.(s) <- "";
  t.repl.(s) <- "";
  t.slot_group.(s) <- link t.free_slot;
  t.free_slot <- s;
  release t g

let open_group t ~parent_coverage ~vbr =
  let g = alloc_group t in
  t.coverage.(g) <- parent_coverage;
  t.new_cov.(g) <- Coverage.new_against parent_coverage ~baseline:vbr;
  t.refs.(g) <- 1;
  g

let close_group = release

let score t g ~data ~repl ~parents ~avg_stack ~path_count =
  Heuristic.score_parts t.variant ~new_cov:t.new_cov.(g)
    ~len:(String.length data) ~repl:(String.length repl) ~avg_stack ~parents
    ~path_count

let score_slot t s g =
  score t g ~data:t.data.(s) ~repl:t.repl.(s) ~parents:t.parents.(s)
    ~avg_stack:t.avg_stack.(s) ~path_count:t.path_count.(s)

let push t g prio ~data ~repl ~parents ~avg_stack ~path_count =
  if full t then invalid_arg "Candidate_queue.push: queue is full";
  let s = alloc_slot t in
  t.data.(s) <- data;
  t.repl.(s) <- repl;
  t.parents.(s) <- parents;
  t.path_count.(s) <- path_count;
  t.avg_stack.(s) <- avg_stack;
  t.slot_group.(s) <- g;
  t.refs.(g) <- t.refs.(g) + 1;
  Pqueue.push ~aux:g t.heap prio s

let candidate t s =
  {
    Candidate.data = t.data.(s);
    repl = t.repl.(s);
    parents = t.parents.(s);
    parent_coverage = t.coverage.(t.slot_group.(s));
    avg_stack = t.avg_stack.(s);
    path_count = t.path_count.(s);
  }

let pop t =
  match Pqueue.pop t.heap with
  | None -> None
  | Some s ->
    let c = candidate t s in
    free_slot t s;
    Some c

let pop_with_priority t =
  match Pqueue.pop_with_priority t.heap with
  | None -> None
  | Some (prio, s) ->
    let c = candidate t s in
    free_slot t s;
    Some (prio, c)

(* Siblings share one coverage, so the intersection with the delta is
   taken once per live group; an entry of an unmoved group then costs
   the read of its group's epoch. Untouched entries keep bit-identical
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
    Pqueue.update t.heap (fun s ~aux:g ->
        if t.moved.(g) = epoch then Some (score_slot t s g, g) else None)

let truncate t =
  if Pqueue.length t.heap > t.bound then begin
    Pqueue.drop_worst t.heap t.bound;
    let kept = Bytes.make t.slots_used '\000' in
    Pqueue.iter (fun s -> Bytes.set kept s '\001') t.heap;
    for s = 0 to t.slots_used - 1 do
      if t.slot_group.(s) >= 0 && Bytes.get kept s = '\000' then free_slot t s
    done
  end

let snapshot t =
  List.map (fun (prio, s) -> (prio, candidate t s)) (Pqueue.snapshot t.heap)

let restore t ~vbr entries =
  List.iter
    (fun (prio, (c : Candidate.t)) ->
      let g = open_group t ~parent_coverage:c.parent_coverage ~vbr in
      push t g prio ~data:c.data ~repl:c.repl ~parents:c.parents
        ~avg_stack:c.avg_stack ~path_count:c.path_count;
      close_group t g)
    entries
