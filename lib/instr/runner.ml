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
  {
    input;
    verdict;
    comparisons = Ctx.comparisons_array ctx;
    coverage = Ctx.coverage ctx;
    trace = Ctx.trace ctx;
    touched = Ctx.touched ctx;
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
   allocations. So the table is keyed by an FNV-1a hash computed over
   the range in place ({!Pdf_util.Fnv}), with small collision buckets
   verified by in-place character comparison against the (string, len)
   pair. Full-string [find]/[remove] are the prefix variants at
   [len = length key]. *)

module Cache = struct
  module Fnv = Pdf_util.Fnv

  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable chars_saved : int;
  }

  type node = {
    key : string;
    hash : int;  (* Fnv.string key, cached for bucket maintenance *)
    mutable snap : snapshot;
    mutable prev : node option;  (* towards most-recent *)
    mutable next : node option;  (* towards least-recent *)
  }

  type t = {
    bound : int;
    table : (int, node list) Hashtbl.t;  (* hash -> collision bucket *)
    mutable count : int;
    mutable head : node option;  (* most recently used *)
    mutable tail : node option;  (* least recently used *)
    stats : stats;
  }

  let create ?(bound = 4096) () =
    {
      bound = max 1 bound;
      table = Hashtbl.create 256;
      count = 0;
      head = None;
      tail = None;
      stats = { hits = 0; misses = 0; evictions = 0; chars_saved = 0 };
    }

  let stats t = t.stats
  let length t = t.count

  (* Does [node.key] equal the first [len] characters of [s]? *)
  let key_matches node s len =
    String.length node.key = len
    &&
    let k = node.key in
    (* [while] over a ref rather than a local [let rec]: the probe runs
       per bucket node on every lookup, and the captured-variable
       closure would be allocated each time. *)
    let i = ref 0 in
    while !i < len && String.unsafe_get k !i = String.unsafe_get s !i do
      incr i
    done;
    !i >= len

  let rec bucket_find bucket s len =
    match bucket with
    | [] -> None
    | n :: rest -> if key_matches n s len then Some n else bucket_find rest s len

  let find_node t s len =
    (* Exception-style lookup: this probe runs several times per
       execution, and [find_opt]'s [Some] wrapper is pure garbage. *)
    match Hashtbl.find t.table (Fnv.prefix s len) with
    | bucket -> bucket_find bucket s len
    | exception Not_found -> None

  (* No recency update, no counter traffic: the fuzzer probes before a
     store so that an already-cached prefix is never materialised as a
     string. *)
  let mem_prefix t s ~len = find_node t s len <> None

  let unlink t node =
    (match node.prev with
     | Some p -> p.next <- node.next
     | None -> t.head <- node.next);
    (match node.next with
     | Some n -> n.prev <- node.prev
     | None -> t.tail <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.next <- t.head;
    (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
    t.head <- Some node

  let drop_from_bucket t node =
    match Hashtbl.find_opt t.table node.hash with
    | None -> ()
    | Some bucket ->
      (match List.filter (fun n -> n != node) bucket with
       | [] -> Hashtbl.remove t.table node.hash
       | rest -> Hashtbl.replace t.table node.hash rest);
      t.count <- t.count - 1

  let find_prefix t s ~len =
    match find_node t s len with
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      None
    | Some node ->
      t.stats.hits <- t.stats.hits + 1;
      t.stats.chars_saved <- t.stats.chars_saved + len;
      if t.head != Some node then begin
        unlink t node;
        push_front t node
      end;
      Some node.snap

  let find t key = find_prefix t key ~len:(String.length key)

  let store t key snap =
    let len = String.length key in
    if find_node t key len = None then begin
      if t.count >= t.bound then begin
        match t.tail with
        | None -> ()
        | Some lru ->
          unlink t lru;
          drop_from_bucket t lru;
          t.stats.evictions <- t.stats.evictions + 1
      end;
      let hash = Fnv.prefix key len in
      let node = { key; hash; snap; prev = None; next = None } in
      let bucket =
        match Hashtbl.find_opt t.table hash with Some b -> b | None -> []
      in
      Hashtbl.replace t.table hash (node :: bucket);
      t.count <- t.count + 1;
      push_front t node
    end

  let remove_prefix t s ~len =
    match find_node t s len with
    | None -> ()
    | Some node ->
      unlink t node;
      drop_from_bucket t node

  let remove t key = remove_prefix t key ~len:(String.length key)

  exception Corrupted_snapshot

  let corrupt_all t =
    let poisoned = Machine.Peek (fun _ _ -> raise Corrupted_snapshot) in
    Hashtbl.iter
      (fun _ bucket ->
        List.iter
          (fun node -> node.snap <- { node.snap with s_step = poisoned })
          bucket)
      t.table
end

let accepted run = run.verdict = Accepted

let max_index_where pred run =
  Array.fold_left
    (fun acc (c : Comparison.t) ->
      if pred c then
        match acc with None -> Some c.index | Some i -> Some (max i c.index)
      else acc)
    None run.comparisons

let last_compared_index run = max_index_where (fun _ -> true) run

(* The first invalid character: the rightmost position where the parser's
   expectation failed. Positions beyond it may have been touched by
   class-membership probes (e.g. "is this still a letter?") whose success
   carries no substitution information, so failed comparisons take
   precedence. *)
let substitution_index run =
  match max_index_where (fun (c : Comparison.t) -> not c.result) run with
  | Some _ as failed -> failed
  | None -> last_compared_index run

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
