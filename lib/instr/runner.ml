module Vec = Pdf_util.Vec

type crash = { exn : string; site : int; detail : string }
type verdict = Accepted | Rejected of string | Hang | Crash of crash

(* First-occurrence order of outcomes: a compact path identity that is
   insensitive to loop iteration counts ("non-duplicate branches").
   Shared by {!path_hash} and the crash-site hash so a crash keeps the
   same identity whether reached by full execution or a cache resume. *)
let fnv_touched touched =
  let h = ref 0x811c9dc5 in
  Array.iter (fun oid -> h := (!h lxor oid) * 0x0100_0193 land max_int) touched;
  !h

let crash_of ctx e =
  {
    exn = Printexc.exn_slot_name e;
    site = fnv_touched (Ctx.touched ctx);
    detail = Printexc.to_string e;
  }

let crash_id c = Printf.sprintf "%s@%08x" c.exn c.site

type run = {
  input : string;
  verdict : verdict;
  comparisons : Comparison.t array;
  coverage : Coverage.t;
  trace : int array;
  touched : int array;
  eof_access : bool;
  max_depth : int;
  frames : Frame.event array;
}

let package ctx input verdict =
  let touched = Ctx.touched ctx in
  {
    input;
    verdict;
    comparisons = Ctx.comparisons_array ctx;
    coverage = Coverage.of_array touched;
    trace = Ctx.trace ctx;
    touched;
    eof_access = Ctx.eof_access ctx;
    max_depth = Ctx.max_depth ctx;
    frames = Ctx.frames ctx;
  }

let exec ~registry ~parse ?fuel ?track_comparisons ?track_trace ?track_frames
    input =
  let ctx =
    Ctx.make ~registry ?fuel ?track_comparisons ?track_trace ?track_frames input
  in
  let verdict =
    match parse ctx with
    | () -> Accepted
    | exception Ctx.Reject reason -> Rejected reason
    | exception Ctx.Out_of_fuel -> Hang
    | exception e -> Crash (crash_of ctx e)
  in
  package ctx input verdict

(* {1 Incremental (journaled) execution}

   A machine-form subject reads the input only through explicit
   {!Machine.step}s, so the driver can observe every read boundary — the
   instant the parser is about to look at input position [p] for the
   first time. At each boundary it journals the pending step together
   with an O(1) {!Ctx.mark}. Because the context's recording buffers are
   append-only, the buffer prefixes below a mark's watermarks are still
   intact when the run finishes; materialising a snapshot is therefore
   just pairing the journaled step/mark with the run's packaged arrays —
   no copying. Resuming builds a context via {!Ctx.restore}
   (copy-on-write buffer prefixes) and drives the saved step against it. *)

type boundary = { b_pos : int; b_step : Machine.step; b_mark : Ctx.mark }

type journal = {
  j_registry : Site.registry;
  j_track_comparisons : bool;
  j_track_trace : bool;
  j_track_frames : bool;
  j_boundaries : boundary array;  (* sorted by strictly increasing b_pos *)
  j_run : run;
}

type snapshot = {
  s_pos : int;
  s_step : Machine.step;
  s_mark : Ctx.mark;
  s_registry : Site.registry;
  s_track_comparisons : bool;
  s_track_trace : bool;
  s_track_frames : bool;
  s_comparisons : Comparison.t array;
  s_touched : int array;
  s_trace : int array;
  s_frames : Frame.event array;
}

let snapshot_pos s = s.s_pos

let dummy_mark =
  {
    Ctx.m_comparisons = 0;
    m_touched = 0;
    m_trace = 0;
    m_frames = 0;
    m_stack = 0;
    m_max_stack = 0;
    m_fuel = 0;
    m_eof_access = false;
  }

let dummy_boundary = { b_pos = 0; b_step = Machine.Done; b_mark = dummy_mark }

(* Drive [step0] to completion, journaling the pending step at every
   position >= [first_boundary] just before it is first observed. The
   cursor only ever advances one position per [Next], so positions are
   read in dense increasing order and "first read at [p]" is exactly the
   read step encountered when [p] passes the high-water mark. *)
let drive_journaled ctx step0 ~journal ~first_boundary =
  let next_boundary = ref first_boundary in
  let note step =
    let p = Ctx.pos ctx in
    if p >= !next_boundary then begin
      Vec.push journal { b_pos = p; b_step = step; b_mark = Ctx.mark ctx };
      next_boundary := p + 1
    end
  in
  let rec loop step =
    match step with
    | Machine.Done -> ()
    | Machine.Peek k ->
      note step;
      loop (k (Ctx.peek ctx) ctx)
    | Machine.Next k ->
      note step;
      loop (k (Ctx.next ctx) ctx)
  in
  loop step0

let exec_machine ~registry ~(machine : Machine.recognizer) ?(fuel = 100_000)
    ?(track_comparisons = true) ?(track_trace = false) ?(track_frames = false)
    input =
  let ctx =
    Ctx.make ~registry ~fuel ~track_comparisons ~track_trace ~track_frames input
  in
  let journal = Vec.create dummy_boundary in
  let verdict =
    match drive_journaled ctx (machine ctx) ~journal ~first_boundary:0 with
    | () -> Accepted
    | exception Ctx.Reject reason -> Rejected reason
    | exception Ctx.Out_of_fuel -> Hang
    | exception e -> Crash (crash_of ctx e)
  in
  let run = package ctx input verdict in
  ( run,
    {
      j_registry = registry;
      j_track_comparisons = track_comparisons;
      j_track_trace = track_trace;
      j_track_frames = track_frames;
      j_boundaries = Vec.to_array journal;
      j_run = run;
    } )

let snapshot_at j pos =
  let bs = j.j_boundaries in
  (* Binary search: positions are strictly increasing. *)
  let rec find lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let b = Array.unsafe_get bs mid in
      if b.b_pos = pos then Some b
      else if b.b_pos < pos then find (mid + 1) hi
      else find lo mid
  in
  match find 0 (Array.length bs) with
  | None -> None
  | Some b ->
    Some
      {
        s_pos = b.b_pos;
        s_step = b.b_step;
        s_mark = b.b_mark;
        s_registry = j.j_registry;
        s_track_comparisons = j.j_track_comparisons;
        s_track_trace = j.j_track_trace;
        s_track_frames = j.j_track_frames;
        s_comparisons = j.j_run.comparisons;
        s_touched = j.j_run.touched;
        s_trace = j.j_run.trace;
        s_frames = j.j_run.frames;
      }

let resume (snap : snapshot) input =
  if String.length input < snap.s_pos then
    invalid_arg "Runner.resume: input shorter than the snapshot's prefix";
  let ctx =
    Ctx.restore ~registry:snap.s_registry ~mark:snap.s_mark ~cursor:snap.s_pos
      ~comparisons:snap.s_comparisons ~touched:snap.s_touched
      ~trace:snap.s_trace ~frames:snap.s_frames
      ~track_comparisons:snap.s_track_comparisons
      ~track_trace:snap.s_track_trace ~track_frames:snap.s_track_frames input
  in
  let journal = Vec.create dummy_boundary in
  let verdict =
    (* The pending step reads position [s_pos], whose prefix is already
       cached under the key that found this snapshot — journal only the
       positions beyond it. *)
    match
      drive_journaled ctx snap.s_step ~journal ~first_boundary:(snap.s_pos + 1)
    with
    | () -> Accepted
    | exception Ctx.Reject reason -> Rejected reason
    | exception Ctx.Out_of_fuel -> Hang
    | exception e -> Crash (crash_of ctx e)
  in
  let run = package ctx input verdict in
  ( run,
    {
      j_registry = snap.s_registry;
      j_track_comparisons = snap.s_track_comparisons;
      j_track_trace = snap.s_track_trace;
      j_track_frames = snap.s_track_frames;
      j_boundaries = Vec.to_array journal;
      j_run = run;
    } )

(* {1 Bounded LRU prefix cache}

   Keys are input prefixes, but the hot-path lookup is always "the first
   [len] characters of this input" — and materialising that prefix as a
   string per execution was two of the fuzzer's three per-exec
   allocations. So entries are found by an FNV-1a hash computed over the
   range in place ({!Pdf_util.Fnv}) and verified by in-place character
   comparison against the (string, len) pair. Full-string
   [find]/[remove] are the prefix variants at [len = length key].

   Everything lives in flat arrays allocated once. An entry is an id
   below [bound] naming a slot in the parallel key, hash, snapshot and
   recency-link arrays; recency is a doubly linked list threaded
   through the int arrays [prev] and [next]. An open-addressed index
   (linear probing, backward-shift deletion) maps the prefix hash to
   the entry id, and a stack holds the free ids. A lookup indexes by
   the FNV hash itself, with no generic [Hashtbl.hash] call; a hit
   returns the stored [Some]; a recency update writes ints only, where
   option-linked nodes would write a fresh [Some] block into an old,
   already promoted node every time (DESIGN.md §13). *)

module Cache = struct
  module Fnv = Pdf_util.Fnv

  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable chars_saved : int;
  }

  type t = {
    bound : int;
    (* Per entry id; a free id has key [""] and snapshot [None]. *)
    keys : string array;
    hashes : int array;  (* Fnv.string key, for the index's home slot *)
    snaps : snapshot option array;
    prev : int array;  (* towards most-recent; -1 at the head *)
    next : int array;  (* towards least-recent; -1 at the tail *)
    (* Open-addressed index: entry id per slot, -1 = empty. Its
       capacity is a power of two at least [2 * bound], so probe chains
       stay short and always reach an empty slot. *)
    index : int array;
    mask : int;
    free : int array;  (* stack of unused ids, [free.(0 .. free_top - 1)] *)
    mutable free_top : int;
    mutable count : int;
    mutable head : int;  (* most recently used, -1 when empty *)
    mutable tail : int;  (* least recently used, -1 when empty *)
    stats : stats;
  }

  let create ?(bound = 4096) () =
    let bound = max 1 bound in
    let cap = ref 2 in
    while !cap < 2 * bound do
      cap := 2 * !cap
    done;
    {
      bound;
      keys = Array.make bound "";
      hashes = Array.make bound 0;
      snaps = Array.make bound None;
      prev = Array.make bound (-1);
      next = Array.make bound (-1);
      index = Array.make !cap (-1);
      mask = !cap - 1;
      free = Array.init bound (fun i -> bound - 1 - i);
      free_top = bound;
      count = 0;
      head = -1;
      tail = -1;
      stats = { hits = 0; misses = 0; evictions = 0; chars_saved = 0 };
    }

  let stats t = t.stats
  let length t = t.count

  (* Does [k] equal the first [len] characters of [s]? *)
  let key_matches k s len =
    String.length k = len
    &&
    (* [while] over a ref rather than a local [let rec]: the probe runs
       per candidate entry on every lookup, and the captured-variable
       closure would be allocated each time. *)
    let i = ref 0 in
    while !i < len && String.unsafe_get k !i = String.unsafe_get s !i do
      incr i
    done;
    !i >= len

  (* Index slot holding the entry for the first [len] characters of
     [s], or -1. *)
  let find_slot t s len =
    let h = Fnv.prefix s len in
    let i = ref (h land t.mask) in
    let res = ref (-2) in
    while !res = -2 do
      let id = Array.unsafe_get t.index !i in
      if id < 0 then res := -1
      else if
        Array.unsafe_get t.hashes id = h
        && key_matches (Array.unsafe_get t.keys id) s len
      then res := !i
      else i := (!i + 1) land t.mask
    done;
    !res

  (* Index slot holding entry [id], which must be resident. *)
  let slot_of t id =
    let i = ref (t.hashes.(id) land t.mask) in
    while Array.unsafe_get t.index !i <> id do
      i := (!i + 1) land t.mask
    done;
    !i

  (* Backward-shift deletion: empty slot [i], then walk the probe chain
     after it and move back every entry whose home slot does not lie
     cyclically in (hole, j] — the entries whose probe would otherwise
     stop at the hole. No tombstones, so chains never lengthen. *)
  let clear_slot t i =
    let hole = ref i and j = ref ((i + 1) land t.mask) in
    while Array.unsafe_get t.index !j >= 0 do
      let id = Array.unsafe_get t.index !j in
      let home = t.hashes.(id) land t.mask in
      let stays =
        if !hole <= !j then !hole < home && home <= !j
        else !hole < home || home <= !j
      in
      if not stays then begin
        t.index.(!hole) <- id;
        hole := !j
      end;
      j := (!j + 1) land t.mask
    done;
    t.index.(!hole) <- -1

  (* No recency update, no counter traffic: the fuzzer probes before a
     store so that an already-cached prefix is never materialised as a
     string. *)
  let mem_prefix t s ~len = find_slot t s len >= 0

  let unlink t id =
    let p = t.prev.(id) and n = t.next.(id) in
    if p >= 0 then t.next.(p) <- n else t.head <- n;
    if n >= 0 then t.prev.(n) <- p else t.tail <- p;
    t.prev.(id) <- -1;
    t.next.(id) <- -1

  let push_front t id =
    t.next.(id) <- t.head;
    if t.head >= 0 then t.prev.(t.head) <- id else t.tail <- id;
    t.head <- id

  (* Drop resident entry [id], held in index slot [slot], and free its
     id; its key and snapshot are released for collection. *)
  let drop t id slot =
    unlink t id;
    clear_slot t slot;
    t.keys.(id) <- "";
    t.snaps.(id) <- None;
    t.free.(t.free_top) <- id;
    t.free_top <- t.free_top + 1;
    t.count <- t.count - 1

  let find_prefix t s ~len =
    let slot = find_slot t s len in
    if slot < 0 then begin
      t.stats.misses <- t.stats.misses + 1;
      None
    end
    else begin
      let id = t.index.(slot) in
      t.stats.hits <- t.stats.hits + 1;
      t.stats.chars_saved <- t.stats.chars_saved + len;
      if t.head <> id then begin
        unlink t id;
        push_front t id
      end;
      t.snaps.(id)
    end

  let find t key = find_prefix t key ~len:(String.length key)

  let store t key snap =
    let len = String.length key in
    if find_slot t key len < 0 then begin
      if t.count >= t.bound then begin
        let lru = t.tail in
        drop t lru (slot_of t lru);
        t.stats.evictions <- t.stats.evictions + 1
      end;
      t.free_top <- t.free_top - 1;
      let id = t.free.(t.free_top) in
      let h = Fnv.prefix key len in
      t.keys.(id) <- key;
      t.hashes.(id) <- h;
      t.snaps.(id) <- Some snap;
      let i = ref (h land t.mask) in
      while Array.unsafe_get t.index !i >= 0 do
        i := (!i + 1) land t.mask
      done;
      t.index.(!i) <- id;
      t.count <- t.count + 1;
      push_front t id
    end

  let remove_prefix t s ~len =
    let slot = find_slot t s len in
    if slot >= 0 then drop t t.index.(slot) slot

  let remove t key = remove_prefix t key ~len:(String.length key)

  exception Corrupted_snapshot

  let corrupt_all t =
    let poisoned = Machine.Peek (fun _ _ -> raise Corrupted_snapshot) in
    Array.iteri
      (fun id snap ->
        match snap with
        | None -> ()
        | Some s -> t.snaps.(id) <- Some { s with s_step = poisoned })
      t.snaps
end

let accepted run = run.verdict = Accepted

(* The first invalid character: the rightmost position where the parser's
   expectation failed. Positions beyond it may have been touched by
   class-membership probes (e.g. "is this still a letter?") whose success
   carries no substitution information, so failed comparisons take
   precedence; with none failed, the rightmost compared position. One
   pass over the log, with the two maxima in int locals. *)
let substitution_index run =
  let cs = run.comparisons in
  let any = ref min_int and failed = ref min_int and has_failed = ref false in
  for i = 0 to Array.length cs - 1 do
    let c = Array.unsafe_get cs i in
    let index = c.Comparison.index in
    if index > !any then any := index;
    if not c.Comparison.result then begin
      has_failed := true;
      if index > !failed then failed := index
    end
  done;
  if !has_failed then Some !failed
  else if Array.length cs > 0 then Some !any
  else None

(* The [~index] variants let a caller that already computed
   {!substitution_index} reuse it — the fuzzer derives several facts per
   run, and each [substitution_index] recomputation is a full scan of the
   comparison log. *)
let comparisons_at run ~index =
  let cs = run.comparisons in
  let acc = ref [] in
  for i = Array.length cs - 1 downto 0 do
    let c = Array.unsafe_get cs i in
    if c.Comparison.index = index then acc := c :: !acc
  done;
  !acc

let comparisons_at_last_index run =
  match substitution_index run with
  | None -> []
  | Some index -> comparisons_at run ~index

let coverage_up_to run ~index =
  (* [trace_pos] counts distinct outcomes covered before the event, and
     [touched] lists outcomes in first-occurrence order — so the
     coverage accumulated before the first comparison at the given index
     is exactly a prefix of [touched]. No full trace required. *)
  let cs = run.comparisons in
  let cut = ref (Array.length run.touched) in
  for i = 0 to Array.length cs - 1 do
    let c = Array.unsafe_get cs i in
    if c.Comparison.index = index && c.Comparison.trace_pos < !cut then
      cut := c.Comparison.trace_pos
  done;
  Coverage.of_array ~len:(min !cut (Array.length run.touched)) run.touched

let coverage_up_to_last_index run =
  match substitution_index run with
  | None -> run.coverage
  | Some index -> coverage_up_to run ~index

let avg_stack_of_last_two run =
  let n = Array.length run.comparisons in
  if n = 0 then 0.0
  else if n = 1 then float_of_int run.comparisons.(0).stack_depth
  else
    float_of_int (run.comparisons.(n - 1).stack_depth + run.comparisons.(n - 2).stack_depth)
    /. 2.0

let path_hash run = fnv_touched run.touched

let pp_verdict ppf = function
  | Accepted -> Format.fprintf ppf "accepted"
  | Rejected reason -> Format.fprintf ppf "rejected (%s)" reason
  | Hang -> Format.fprintf ppf "hang"
  | Crash c -> Format.fprintf ppf "crash (%s: %s)" (crash_id c) c.detail
