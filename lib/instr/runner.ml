module Vec = Pdf_util.Vec

type crash = { exn : string; site : int; detail : string }
type verdict = Accepted | Rejected of string | Hang | Crash of crash

(* First-occurrence order of outcomes: a compact path identity that is
   insensitive to loop iteration counts ("non-duplicate branches"), over
   the first [n] entries of a touched buffer. Shared by {!path_hash},
   the view's path hash and the crash-site hash, so a crash keeps the
   same identity whether reached by full execution or a cache resume. *)
let fnv_touched touched n =
  let h = ref 0x811c9dc5 in
  for i = 0 to n - 1 do
    h := (!h lxor Array.unsafe_get touched i) * 0x0100_0193 land max_int
  done;
  !h

let crash_of ctx e =
  {
    exn = Printexc.exn_slot_name e;
    site = fnv_touched (Ctx.touched_buffer ctx) (Ctx.touched_count ctx);
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

let package ctx verdict =
  let touched = Ctx.touched ctx in
  {
    input = Ctx.input ctx;
    verdict;
    comparisons = Ctx.comparisons_array ctx;
    coverage = Coverage.of_array touched;
    trace = Ctx.trace ctx;
    touched;
    eof_access = Ctx.eof_access ctx;
    max_depth = Ctx.max_depth ctx;
    frames = Ctx.frames ctx;
  }

let run_in ctx ~parse =
  match parse ctx with
  | () -> Accepted
  | exception Ctx.Reject reason -> Rejected reason
  | exception Ctx.Out_of_fuel -> Hang
  | exception e -> Crash (crash_of ctx e)

let exec ~registry ~parse ?fuel ?track_comparisons ?track_trace ?track_frames
    input =
  let ctx =
    Ctx.make ~registry ?fuel ?track_comparisons ?track_trace ?track_frames input
  in
  let verdict = run_in ctx ~parse in
  package ctx verdict

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
  let run = package ctx verdict in
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
  let run = package ctx verdict in
  ( run,
    {
      j_registry = snap.s_registry;
      j_track_comparisons = snap.s_track_comparisons;
      j_track_trace = snap.s_track_trace;
      j_track_frames = snap.s_track_frames;
      j_boundaries = Vec.to_array journal;
      j_run = run;
    } )

(* {1 Direct-mapped prefix cache}

   Keys are input prefixes, but the hot-path lookup is always "the first
   [len] characters of this input" — and materialising that prefix as a
   string per execution was two of the fuzzer's three per-exec
   allocations. So entries are found by an FNV-1a hash computed over the
   range in place ({!Pdf_util.Fnv}) and verified by in-place character
   comparison against the (string, len) pair. Full-string [find] is the
   prefix variant at [len = length key].

   A prefix lives only in the slot its hash selects, [hash land mask],
   in parallel key, hash and snapshot arrays allocated once. A store
   into an occupied slot replaces the resident entry, so a lookup or a
   store touches one slot, and nothing but the counters is kept beside
   the entries. A hit returns the stored [Some]. *)

module Cache = struct
  module Fnv = Pdf_util.Fnv

  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable chars_saved : int;
  }

  type t = {
    keys : string array;
    hashes : int array;  (* Fnv.prefix of the key; -1 marks an empty slot *)
    snaps : snapshot option array;
    mask : int;
    mutable count : int;
    stats : stats;
  }

  let create ?(bound = 8192) () =
    (* The largest power of two within [bound], so a slot is the hash's
       low bits. *)
    let slots = ref 1 in
    while 2 * !slots <= bound do
      slots := 2 * !slots
    done;
    {
      keys = Array.make !slots "";
      hashes = Array.make !slots (-1);
      snaps = Array.make !slots None;
      mask = !slots - 1;
      count = 0;
      stats = { hits = 0; misses = 0; evictions = 0; chars_saved = 0 };
    }

  let stats t = t.stats
  let length t = t.count

  (* Does [k] equal the first [len] characters of [s]? *)
  let key_matches k s len =
    String.length k = len
    &&
    (* [while] over a ref rather than a local [let rec]: the probe runs
       on every lookup, and the captured-variable closure would be
       allocated each time. *)
    let i = ref 0 in
    while !i < len && String.unsafe_get k !i = String.unsafe_get s !i do
      incr i
    done;
    !i >= len

  (* Does slot [i], selected by hash [h], hold the first [len]
     characters of [s]? FNV hashes are non-negative, so an empty slot
     never matches. *)
  let holds t i h s len =
    Array.unsafe_get t.hashes i = h && key_matches (Array.unsafe_get t.keys i) s len

  (* No counter traffic: the fuzzer probes before a store so that an
     already-cached prefix is never materialised as a string. *)
  let mem_prefix t s ~len =
    let h = Fnv.prefix s len in
    holds t (h land t.mask) h s len

  let find_prefix t s ~len =
    let h = Fnv.prefix s len in
    let i = h land t.mask in
    if holds t i h s len then begin
      t.stats.hits <- t.stats.hits + 1;
      t.stats.chars_saved <- t.stats.chars_saved + len;
      Array.unsafe_get t.snaps i
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      None
    end

  let find t key = find_prefix t key ~len:(String.length key)

  let store t key snap =
    let len = String.length key in
    let h = Fnv.prefix key len in
    let i = h land t.mask in
    if not (holds t i h key len) then begin
      if t.hashes.(i) < 0 then t.count <- t.count + 1
      else t.stats.evictions <- t.stats.evictions + 1;
      t.keys.(i) <- key;
      t.hashes.(i) <- h;
      t.snaps.(i) <- Some snap
    end
end

let accepted run = match run.verdict with Accepted -> true | _ -> false

(* {1 Derived observations}

   A packaged run holds its comparisons as records and a view reads a
   context's columns, so each derivation is written once over each. *)

(* The first invalid character: the rightmost position where the parser's
   expectation failed. Positions beyond it may have been touched by
   class-membership probes (e.g. "is this still a letter?") whose success
   carries no substitution information, so failed comparisons take
   precedence; with none failed, the rightmost compared position. One
   pass over the log, with the two maxima in int locals; -1 for an empty
   log (input indices are never negative). *)
let last_index cs =
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
  if !has_failed then !failed else if Array.length cs > 0 then !any else -1

(* [trace_pos] counts distinct outcomes covered before the event, and
   [touched] lists outcomes in first-occurrence order — so the coverage
   accumulated before the first comparison at the given index is exactly
   a prefix of [touched], of this length. No full trace required. *)
let coverage_cut cs ~touched ~index =
  let cut = ref touched in
  for i = 0 to Array.length cs - 1 do
    let c = Array.unsafe_get cs i in
    if c.Comparison.index = index && c.Comparison.trace_pos < !cut then
      cut := c.Comparison.trace_pos
  done;
  !cut

let substitution_index run =
  let cs = run.comparisons in
  if Array.length cs = 0 then None else Some (last_index cs)

(* The [~index] variants let a caller that already computed
   {!substitution_index} reuse it — each [substitution_index]
   recomputation is a full scan of the comparison log. *)
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
  let touched = run.touched in
  Coverage.of_array
    ~len:(coverage_cut run.comparisons ~touched:(Array.length touched) ~index)
    touched

let coverage_up_to_last_index run =
  match substitution_index run with
  | None -> run.coverage
  | Some index -> coverage_up_to run ~index

let avg_stack_of_last_two run =
  let cs = run.comparisons in
  match Array.length cs with
  | 0 -> 0.0
  | 1 -> float_of_int cs.(0).Comparison.stack_depth
  | n ->
    float_of_int (cs.(n - 1).Comparison.stack_depth + cs.(n - 2).Comparison.stack_depth)
    /. 2.0

let path_hash run = fnv_touched run.touched (Array.length run.touched)

(* {1 Views}

   The derivations again, over a context's comparison columns and
   touched buffer in place. *)

module View = struct
  type t = {
    mutable input : string;
    mutable verdict : verdict;
    mutable comparisons : Comparison.columns;
    mutable n_comparisons : int;
    mutable touched : int array;
    mutable n_touched : int;
  }

  let create () =
    {
      input = "";
      verdict = Accepted;
      comparisons = Comparison.columns 0;
      n_comparisons = 0;
      touched = [||];
      n_touched = 0;
    }

  (* The view is long-lived and the buffers only change when the
     context grows them, so a buffer field is written only then: storing
     a pointer into the view costs a write barrier. *)
  let of_ctx v ctx verdict =
    v.input <- Ctx.input ctx;
    v.verdict <- verdict;
    v.n_comparisons <- Ctx.comparison_count ctx;
    v.n_touched <- Ctx.touched_count ctx;
    let columns = Ctx.comparison_columns ctx in
    if columns != v.comparisons then v.comparisons <- columns;
    let touched = Ctx.touched_buffer ctx in
    if touched != v.touched then v.touched <- touched

  let substitution_index v =
    let indices = v.comparisons.indices and results = v.comparisons.results in
    let any = ref min_int and failed = ref min_int and has_failed = ref false in
    for i = 0 to v.n_comparisons - 1 do
      let index = Array.unsafe_get indices i in
      if index > !any then any := index;
      if not (Array.unsafe_get results i) then begin
        has_failed := true;
        if index > !failed then failed := index
      end
    done;
    if !has_failed then !failed else if v.n_comparisons > 0 then !any else -1

  let coverage_up_to v ~index =
    let indices = v.comparisons.indices
    and trace_positions = v.comparisons.trace_positions in
    let cut = ref v.n_touched in
    for i = 0 to v.n_comparisons - 1 do
      let trace_pos = Array.unsafe_get trace_positions i in
      if Array.unsafe_get indices i = index && trace_pos < !cut then cut := trace_pos
    done;
    Coverage.of_array ~len:!cut v.touched

  let avg_stack_of_last_two v =
    let depths = v.comparisons.depths in
    match v.n_comparisons with
    | 0 -> 0.0
    | 1 -> float_of_int depths.(0)
    | n -> float_of_int (depths.(n - 1) + depths.(n - 2)) /. 2.0

  let path_hash v = fnv_touched v.touched v.n_touched
  let coverage v = Coverage.of_array ~len:v.n_touched v.touched
  let new_outcomes v ~baseline = Coverage.new_in v.touched ~len:v.n_touched ~baseline
end

let pp_verdict ppf = function
  | Accepted -> Format.fprintf ppf "accepted"
  | Rejected reason -> Format.fprintf ppf "rejected (%s)" reason
  | Hang -> Format.fprintf ppf "hang"
  | Crash c -> Format.fprintf ppf "crash (%s: %s)" (crash_id c) c.detail
