(* The heap lives in three parallel arrays indexed by heap position:
   priorities, insertion sequence numbers and values. There is no
   per-entry record, so a push allocates nothing once the arrays have
   grown, and a comparison reads two unboxed floats and, on a tie, two
   ints — never a pointer.

   Values are kept as [Obj.t], not ['a]. A vacated position must not
   keep its popped value alive, so it is overwritten with [vacant]; an
   ['a array] has no value to overwrite it with, and casting an
   immediate to ['a] is unsound once the code is specialised at
   ['a = float], where the compiler would read the array as a flat float
   array. An [Obj.t array] is created from an immediate, so it is never
   a flat float array, and because its element type is abstract every
   access takes the generic path that checks the array's tag: a float
   value is stored as its box and read back as the same box. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : Obj.t array;  (* each an ['a], or [vacant] *)
  mutable size : int;
  mutable next_seq : int;
}

let vacant = Obj.repr ()

let create () =
  { prios = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let length t = t.size

let[@inline] value t i : 'a = Obj.obj (Array.unsafe_get t.values i)

(* Max-heap order: higher priority first; on equal priority, lower seq
   (earlier insertion) first. Sequence numbers are unique, so this is a
   total order. [beats] compares two (priority, seq) pairs; [before]
   compares the entries at two live positions. *)
let[@inline] beats (p : float) (s : int) pj sj = p > pj || (p = pj && s < sj)

let[@inline] before t i j =
  beats (Array.unsafe_get t.prios i) (Array.unsafe_get t.seqs i)
    (Array.unsafe_get t.prios j) (Array.unsafe_get t.seqs j)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.prios dst (Array.unsafe_get t.prios src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

let[@inline] place t i p s v =
  Array.unsafe_set t.prios i p;
  Array.unsafe_set t.seqs i s;
  Array.unsafe_set t.values i v

let swap t i j =
  let p = t.prios.(i) and s = t.seqs.(i) and v = t.values.(i) in
  move t ~src:j ~dst:i;
  place t j p s v

(* Both sifts move a hole instead of swapping: the entry being placed is
   held in locals, each entry it passes moves once into the hole, and
   the entry is written once where the hole stops. *)
let sift_up t i =
  let p = t.prios.(i) and s = t.seqs.(i) and v = t.values.(i) in
  let hole = ref i in
  let continue = ref true in
  while !continue && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if beats p s (Array.unsafe_get t.prios parent) (Array.unsafe_get t.seqs parent)
    then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else continue := false
  done;
  place t !hole p s v

(* Sifts within positions [0, size), which is the whole heap except
   while [iter_ranked] sorts it. *)
let sift_down_within t i size =
  let p = t.prios.(i) and s = t.seqs.(i) and v = t.values.(i) in
  let hole = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !hole) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c = if r < size && before t r l then r else l in
      if beats (Array.unsafe_get t.prios c) (Array.unsafe_get t.seqs c) p s then begin
        move t ~src:c ~dst:!hole;
        hole := c
      end
      else continue := false
    end
  done;
  place t !hole p s v

let sift_down t i = sift_down_within t i t.size

let grow t =
  let cap = Array.length t.prios in
  if t.size = cap then begin
    let ncap = Int.max 16 (2 * cap) in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.prios <- extend t.prios neg_infinity;
    t.seqs <- extend t.seqs 0;
    t.values <- extend t.values vacant
  end

let push t prio v =
  grow t;
  let i = t.size in
  place t i prio t.next_seq (Obj.repr v);
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

(* Caller guarantees [size > 0]. *)
let remove_top t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    move t ~src:last ~dst:0;
    t.values.(last) <- vacant;
    sift_down t 0
  end
  else t.values.(0) <- vacant

let pop t =
  if t.size = 0 then None
  else begin
    let v = value t 0 in
    remove_top t;
    Some v
  end

let top t =
  if t.size = 0 then invalid_arg "Pqueue.top: empty queue";
  value t 0

let top_priority t =
  if t.size = 0 then invalid_arg "Pqueue.top_priority: empty queue";
  t.prios.(0)

let heapify t =
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

(* Selective re-score: [f value] returns [None] to leave an entry
   untouched or [Some prio] to re-score it. The heap is restored only if
   a priority actually changed, so a delta that misses every pending
   entry costs one pass and no sifting. Untouched entries keep
   bit-identical priorities and sequence numbers, so the heap pops in
   the sequence a re-score of every entry would produce. *)
let update t f =
  let changed = ref false in
  for i = 0 to t.size - 1 do
    match f (value t i) with
    | None -> ()
    | Some prio ->
      if prio <> t.prios.(i) then changed := true;
      t.prios.(i) <- prio
  done;
  if !changed then heapify t

(* Heapsort leaves the best entry last, so the sorted positions are then
   reversed: an array sorted best first is itself a valid heap. *)
let iter_ranked f t =
  for last = t.size - 1 downto 1 do
    swap t 0 last;
    sift_down_within t 0 last
  done;
  let i = ref 0 and j = ref (t.size - 1) in
  while !i < !j do
    swap t !i !j;
    incr i;
    decr j
  done;
  for i = 0 to t.size - 1 do
    f (value t i)
  done

(* Selection for [drop_worst]: rearrange live positions so the [n] best
   under the total order occupy [0..n). Median-of-three Lomuto
   quickselect, average O(size). The kept set is unique ([before] is a
   total order, so "the best n" is well defined), and pops from the
   rebuilt heap are layout-independent, so the selection strategy is
   invisible to results. *)
let partition t lo hi =
  let mid = lo + ((hi - lo) / 2) in
  (* Move the median of positions (lo, mid, hi) to [hi] as the pivot. *)
  let m =
    if before t lo mid then
      if before t mid hi then mid else if before t lo hi then hi else lo
    else if before t lo hi then lo
    else if before t mid hi then hi
    else mid
  in
  if m <> hi then swap t m hi;
  let store = ref lo in
  for i = lo to hi - 1 do
    if before t i hi then begin
      if i <> !store then swap t i !store;
      incr store
    end
  done;
  if !store <> hi then swap t !store hi;
  !store

let rec select t lo hi n =
  if lo < hi then begin
    let p = partition t lo hi in
    if p > n then select t lo (p - 1) n
    else if p < n - 1 then select t (p + 1) hi n
    (* p = n - 1 or p = n: every position below [n] comes before every
       position at or beyond it — selection done. *)
  end

let drop_worst t n =
  if t.size > n then begin
    let n = Int.max 0 n in
    if n > 0 then select t 0 (t.size - 1) n;
    Array.fill t.values n (t.size - n) vacant;
    t.size <- n;
    heapify t
  end

let snapshot t =
  let order = Array.init t.size Fun.id in
  Array.sort (fun i j -> compare t.seqs.(i) t.seqs.(j)) order;
  Array.fold_right (fun i acc -> (t.prios.(i), value t i) :: acc) order []
