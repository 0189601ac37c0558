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
  mutable repl : string array;
  mutable slot_group : int array;
  mutable slots_used : int;
  mutable free_slot : int;
  (* Group columns, laid out the same way. A member's input is
     [input.(g)[0 .. cut.(g)) ^ repl]. [refs] counts the group's queued
     members, plus one while it is open. [moved] is the re-rank epoch at
     which [new_cov] last changed. *)
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
  let bound = max 0 bound in
  {
    variant;
    bound;
    cap = (2 * bound) + 2;
    heap = Pqueue.create ();
    repl = [||];
    slot_group = [||];
    slots_used = 0;
    free_slot = -1;
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

let length t = Pqueue.length t.heap
let full t = Pqueue.length t.heap > 2 * t.bound
let slot_capacity t = Array.length t.repl
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
    if t.slots_used = Array.length t.repl then begin
      let n = next_capacity t t.slots_used in
      t.repl <- resize t.repl n "";
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

let free_slot t s =
  let g = t.slot_group.(s) in
  t.repl.(s) <- "";
  t.slot_group.(s) <- link t.free_slot;
  t.free_slot <- s;
  release t g

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

let close_group = release

let score t g ~repl =
  let rl = String.length repl in
  Heuristic.score_parts t.variant ~new_cov:t.new_cov.(g) ~len:(t.cut.(g) + rl)
    ~repl:rl ~avg_stack:t.avg_stack.(g) ~parents:t.parents.(g)
    ~path_count:t.path_count.(g)

let push t g prio ~repl =
  if full t then invalid_arg "Candidate_queue.push: queue is full";
  let s = alloc_slot t in
  t.repl.(s) <- repl;
  t.slot_group.(s) <- g;
  t.refs.(g) <- t.refs.(g) + 1;
  Pqueue.push ~aux:g t.heap prio s

(* One allocation: the prefix and the replacement blitted into a fresh
   string. [open_group] checked the cut against the input. *)
let member_data t g ~repl =
  let cut = t.cut.(g) in
  let rl = String.length repl in
  let b = Bytes.create (cut + rl) in
  Bytes.blit_string t.input.(g) 0 b 0 cut;
  Bytes.blit_string repl 0 b cut rl;
  Bytes.unsafe_to_string b

let candidate t s =
  let g = t.slot_group.(s) in
  let repl = t.repl.(s) in
  {
    Candidate.data = member_data t g ~repl;
    repl;
    parents = t.parents.(g);
    parent_coverage = t.coverage.(g);
    avg_stack = t.avg_stack.(g);
    path_count = t.path_count.(g);
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
        if t.moved.(g) = epoch then Some (score t g ~repl:t.repl.(s), g)
        else None)

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
      if not (String.ends_with ~suffix:c.repl c.data) then
        invalid_arg "Candidate_queue.restore: data does not end with repl";
      let g =
        open_group t ~input:c.data
          ~cut:(String.length c.data - String.length c.repl)
          ~parents:c.parents ~avg_stack:c.avg_stack ~path_count:c.path_count
          ~parent_coverage:c.parent_coverage ~vbr
      in
      push t g prio ~repl:c.repl;
      close_group t g)
    entries
