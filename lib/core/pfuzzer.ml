module Rng = Pdf_util.Rng
module Pqueue = Pdf_util.Pqueue
module Fnv = Pdf_util.Fnv
module Atomic_file = Pdf_util.Atomic_file
module Coverage = Pdf_instr.Coverage
module Runner = Pdf_instr.Runner
module Comparison = Pdf_instr.Comparison
module Subject = Pdf_subjects.Subject
module Fault = Pdf_fault.Fault
module Obs = Pdf_obs.Observer
module Event = Pdf_obs.Event
module Phase = Pdf_obs.Phase

type config = {
  seed : int;
  max_executions : int;
  max_input_len : int;
  heuristic : Heuristic.variant;
  queue_bound : int;
  incremental : bool;
}

let default_config =
  {
    seed = 1;
    max_executions = 2000;
    max_input_len = 64;
    heuristic = Heuristic.Prose;
    queue_bound = 50_000;
    incremental = true;
  }

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  chars_saved : int;
  rescues : int;
}

let no_cache_stats =
  { hits = 0; misses = 0; evictions = 0; chars_saved = 0; rescues = 0 }

type crash = {
  exn : string;
  site : int;
  detail : string;
  input : string;
  first_at : int;
  count : int;
}

(* Distinct (exn, site) identities retained for triage. Beyond the bound
   new identities still count towards [crash_total] but are not kept —
   a subject that crashes everywhere must not turn the corpus into a
   memory leak. *)
let crash_bound = 256

type result = {
  valid_inputs : string list;
  valid_coverage : Coverage.t;
  hits : Pdf_instr.Hits.t;
  executions : int;
  candidates_created : int;
  queue_peak : int;
  first_valid_at : int option;
  dedupe_resets : int;
  path_resets : int;
  cache : cache_stats;
  crashes : crash list;
  crash_total : int;
  hangs : int;
  wall_clock_s : float;
  execs_per_sec : float;
}

type queue_event =
  | Pushed of float * string
  | Popped of float * string
  | Reranked of (float * string) list
  | Truncated of (float * string) list

(* {1 Checkpoints}

   Everything the deterministic part of a campaign depends on, in
   Marshal-safe form (no closures, no Hashtbls — tables flatten to
   lists). The prefix-snapshot cache is deliberately excluded: resuming
   with a cold cache is safe because incremental execution is
   bit-identical to full execution, and cache counters are timing-like
   accounting that result comparisons already ignore. *)

module Checkpoint = struct
  type payload = {
    ck_subject : string;
    ck_config : config;
    ck_rng : int64;
    ck_queue : (float * Candidate.t) list;  (* insertion order *)
    ck_current : Candidate.t;  (* the candidate about to be executed *)
    ck_vbr : Coverage.t;
    ck_valid_rev : string list;
    ck_valid_count : int;
    ck_first_valid_at : int option;
    ck_last_progress_at : int;
    ck_executions : int;
    ck_candidates_created : int;
    ck_queue_peak : int;
    ck_dedupe_resets : int;
    ck_path_resets : int;
    ck_seen : string list;
    ck_paths : (int * int) list;
    ck_hits : (int * int) list;  (* canonical Hits.to_list form *)
    ck_hangs : int;
    ck_crashes : ((string * int) * crash) list;  (* first-seen order *)
    ck_crash_total : int;
  }

  type t = payload

  (* v2: [config] gained the [engine] and [batch] fields.
     v3: the payload gained [ck_hits], the global branch hit-counts.
     v4: [config] lost [engine] and [batch] again.
     v5: [config] lost [dedupe]. *)
  let version = 5

  let envelope =
    { Pdf_util.Envelope.magic = "pfckpt"; version; noun = "checkpoint" }

  let subject_name t = t.ck_subject
  let executions t = t.ck_executions
  let config t = t.ck_config
  let encode (t : t) = Pdf_util.Envelope.encode envelope t

  let decode s : (t, string) Stdlib.result =
    Pdf_util.Envelope.decode envelope s ~pos:0 ~len:(String.length s)

  (* The campaign-so-far as a result record — what a sync frame in a
     distributed campaign carries. Cache accounting and wall-clock are
     zero: a checkpoint deliberately excludes them. *)
  let partial_result t =
    {
      valid_inputs = List.rev t.ck_valid_rev;
      valid_coverage = t.ck_vbr;
      hits = Pdf_instr.Hits.of_list t.ck_hits;
      executions = t.ck_executions;
      candidates_created = t.ck_candidates_created;
      queue_peak = t.ck_queue_peak;
      first_valid_at = t.ck_first_valid_at;
      dedupe_resets = t.ck_dedupe_resets;
      path_resets = t.ck_path_resets;
      cache = no_cache_stats;
      crashes = List.map snd t.ck_crashes;
      crash_total = t.ck_crash_total;
      hangs = t.ck_hangs;
      wall_clock_s = 0.0;
      execs_per_sec = 0.0;
    }

  let save path t = Atomic_file.write_string path (encode t)

  let load path =
    match Atomic_file.read_string path with
    | s -> decode s
    | exception Sys_error msg -> Error msg
end

(* {1 Candidate dedupe, hash-before-allocate}

   Membership of a would-be child [input[0..index) ^ repl] is decided by
   hashing the parts in place ({!Pdf_util.Fnv}) and verifying stored
   strings with in-place comparison, so a duplicate child is rejected
   without the child string ever existing. *)

(* Does [s.[pos ..]] start with [repl]? Bounds are the caller's: [s] is
   known to be long enough. *)
(* These comparisons run for every proposed child (the parent-equality
   gate and dedupe probes), so they are [while] loops over register-able
   refs — a captured-variable [let rec] would cost a closure allocation
   per call. *)
let ends_with_at s pos repl =
  let rl = String.length repl in
  let i = ref 0 in
  while
    !i < rl && String.unsafe_get s (pos + !i) = String.unsafe_get repl !i
  do
    incr i
  done;
  !i >= rl

(* Does [s] (of length [index + length repl], checked by the caller)
   equal [input[0..index) ^ repl]? *)
let matches_concat s input index repl =
  let i = ref 0 in
  while !i < index && String.unsafe_get s !i = String.unsafe_get input !i do
    incr i
  done;
  !i >= index && ends_with_at s index repl

(* The dedupe set: open-addressed linear probing over parallel
   (hash, string) arrays. A generic [Hashtbl] here costs a generic-hash
   call plus a bucket-cons allocation per insert and shows up directly
   in candidate-generation time; this table allocates nothing per
   operation (the arrays double rarely, and entries are never deleted —
   the campaign resets the whole generation instead, see
   [seen_inputs_cap]). FNV hashes are non-negative, so [-1] marks an
   empty slot. *)
module Seen = struct
  type t = {
    mutable hashes : int array;  (* -1 = empty slot *)
    mutable vals : string array;
    mutable mask : int;  (* Array.length hashes - 1; length a power of 2 *)
    mutable count : int;
  }

  let create () =
    {
      hashes = Array.make 1024 (-1);
      vals = Array.make 1024 "";
      mask = 1023;
      count = 0;
    }

  let count t = t.count

  (* Is a string equal to [input[0..index) ^ repl] present? [h] must be
     the FNV hash of that concatenation. *)
  (* The probe loops are [while]s over a mutable slot index rather than
     local recursive functions: the compiler turns these non-escaping
     refs into registers, whereas a captured-variable [let rec] costs a
     closure allocation per call — on the hottest path in the fuzzer. *)
  let mem_parts t h input index repl =
    let n = index + String.length repl in
    let mask = t.mask in
    let hashes = t.hashes and vals = t.vals in
    let i = ref (h land mask) in
    let res = ref false in
    let probing = ref true in
    while !probing do
      let hi = Array.unsafe_get hashes !i in
      if hi = -1 then probing := false
      else if
        hi = h
        &&
        let s = Array.unsafe_get vals !i in
        String.length s = n && matches_concat s input index repl
      then begin
        res := true;
        probing := false
      end
      else i := (!i + 1) land mask
    done;
    !res

  let insert_raw t h v =
    let mask = t.mask in
    let hashes = t.hashes in
    let i = ref (h land mask) in
    while Array.unsafe_get hashes !i >= 0 do
      i := (!i + 1) land mask
    done;
    hashes.(!i) <- h;
    t.vals.(!i) <- v

  let grow t =
    let old_h = t.hashes and old_v = t.vals in
    let n = 2 * Array.length old_h in
    t.hashes <- Array.make n (-1);
    t.vals <- Array.make n "";
    t.mask <- n - 1;
    Array.iteri (fun i h -> if h >= 0 then insert_raw t h old_v.(i)) old_h

  (* The caller has already checked membership; duplicates are its
     problem. Load factor stays below 1/2. *)
  let add t h v =
    if 2 * (t.count + 1) > Array.length t.hashes then grow t;
    insert_raw t h v;
    t.count <- t.count + 1

  (* Generational reset: clear in place, keeping the grown capacity.
     Values must be cleared too or the dead generation's strings stay
     reachable. *)
  let reset t =
    Array.fill t.hashes 0 (Array.length t.hashes) (-1);
    Array.fill t.vals 0 (Array.length t.vals) "";
    t.count <- 0

  let fold f t acc =
    let acc = ref acc in
    for i = 0 to Array.length t.hashes - 1 do
      if Array.unsafe_get t.hashes i >= 0 then acc := f t.vals.(i) !acc
    done;
    !acc
end

(* Path-novelty counts, same open-addressed scheme with int values. The
   key is already a path hash ({!Runner.path_hash}), so the table maps
   hash -> count exactly as the [Hashtbl] it replaces did (hash
   collisions conflate paths in both). *)
module Paths = struct
  type t = {
    mutable hashes : int array;  (* -1 = empty slot *)
    mutable counts : int array;
    mutable mask : int;
    mutable count : int;  (* distinct keys stored *)
  }

  let create () =
    {
      hashes = Array.make 1024 (-1);
      counts = Array.make 1024 0;
      mask = 1023;
      count = 0;
    }

  let count t = t.count

  (* Slot of key [h], or [-1] when absent. *)
  let find_slot t h =
    let mask = t.mask in
    let hashes = t.hashes in
    let i = ref (h land mask) in
    let res = ref (-2) in
    while !res = -2 do
      let hi = Array.unsafe_get hashes !i in
      if hi = -1 then res := -1
      else if hi = h then res := !i
      else i := (!i + 1) land mask
    done;
    !res

  let get_count t slot = t.counts.(slot)
  let bump t slot = t.counts.(slot) <- t.counts.(slot) + 1

  let insert_raw t h c =
    let mask = t.mask in
    let hashes = t.hashes in
    let i = ref (h land mask) in
    while Array.unsafe_get hashes !i >= 0 do
      i := (!i + 1) land mask
    done;
    hashes.(!i) <- h;
    t.counts.(!i) <- c

  let grow t =
    let old_h = t.hashes and old_c = t.counts in
    let n = 2 * Array.length old_h in
    t.hashes <- Array.make n (-1);
    t.counts <- Array.make n 0;
    t.mask <- n - 1;
    Array.iteri (fun i h -> if h >= 0 then insert_raw t h old_c.(i)) old_h

  let add t h c =
    if 2 * (t.count + 1) > Array.length t.hashes then grow t;
    insert_raw t h c;
    t.count <- t.count + 1

  let reset t =
    Array.fill t.hashes 0 (Array.length t.hashes) (-1);
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.count <- 0

  let fold f t acc =
    let acc = ref acc in
    for i = 0 to Array.length t.hashes - 1 do
      if Array.unsafe_get t.hashes i >= 0 then
        acc := f t.hashes.(i) t.counts.(i) !acc
    done;
    !acc
end

type state = {
  config : config;
  subject : Subject.t;
  (* The incremental engine: present only when the config enables it and
     the subject ships a machine-form parser. [cache] maps an input
     prefix to the snapshot suspended at its end. *)
  machine : Pdf_instr.Machine.recognizer option;
  cache : Runner.Cache.t option;
  rng : Rng.t;
  queue : Candidate.t Pqueue.t;
  on_queue_event : (queue_event -> unit) option;
  (* Deterministic chaos: when a plan is installed, each execution index
     is looked up and a planned fault replaces or degrades that single
     execution. [None] is the production path. *)
  faults : Fault.plan option;
  (* Telemetry. [obs = None] is the fast path: no events, no clock
     reads, no allocation — the observability layer costs nothing when
     off. Every emission site matches on [obs] *before* constructing
     its event. *)
  obs : Obs.t option;
  (* Does the current loop iteration record its exec-level events and
     phase spans? Decided at the top of each iteration from the
     execution count ({!Obs.sampled}); false without an observer. *)
  mutable sampled : bool;
  mutable vbr : Coverage.t;  (* branches covered by valid inputs *)
  (* Global branch hit-counts: how many executions reached each outcome,
     across every verdict. The distributed sync protocol merges these
     across shards (pointwise sum), so workers can learn what the fleet
     has saturated. *)
  mutable hits : Pdf_instr.Hits.t;
  mutable valid_rev : string list;
  mutable valid_count : int;
  mutable last_progress_at : int;  (* execution count when vbr last grew *)
  mutable executions : int;
  mutable candidates_created : int;
  mutable queue_peak : int;
  mutable first_valid_at : int option;
  mutable dedupe_resets : int;
  mutable path_resets : int;
  path_counts : Paths.t;
  (* Candidate dedupe, keyed by content hash with stored strings
     verified by in-place comparison. Hash-keying is what lets
     [add_inputs] test "was prefix^repl already queued?" before the
     child string exists: hash the prefix once per run, extend it over
     each replacement, and only allocate on a genuinely fresh child. *)
  seen_inputs : Seen.t;
  (* Crash triage: bounded dedup table keyed on (exn, site) plus the
     first-seen order, so the corpus lists crashes in discovery order. *)
  crash_tab : (string * int, crash) Hashtbl.t;
  mutable crash_order_rev : (string * int) list;
  mutable crash_total : int;
  mutable hangs : int;
  mutable cache_rescues : int;
  on_valid : string -> unit;
  on_execution : (Runner.run -> unit) option;
}

(* The dedupe table would otherwise grow without bound over a long run:
   every distinct candidate string ever queued stays referenced. Cap it
   at a small multiple of the queue bound and reset generationally —
   after a reset some early duplicates may be re-executed once, which is
   cheap compared to retaining millions of dead strings. *)
let seen_inputs_cap config = 4 * config.queue_bound

(* Same bound and policy for the path-novelty table: its keys are path
   hashes of runs, which also accumulate forever. After a reset the
   counts rebuild from the paths still being exercised; a transient
   novelty boost for re-seen paths is cheap compared to unbounded
   growth. *)
let path_counts_cap = seen_inputs_cap

(* Queue-event sites must match on [on_queue_event] *before* building
   the event (and before even capturing its pieces in a closure): pushes
   run several times per execution, and a closure per push is real
   allocation traffic when nobody is listening. *)

(* Queue snapshot for the observer, in insertion order. Only built when
   an observer is installed (see [emit]'s laziness). *)
let observed_snapshot st =
  List.map (fun (prio, (c : Candidate.t)) -> (prio, c.data)) (Pqueue.snapshot st.queue)

(* Telemetry helpers. [tsink] answers "is a trace sink attached" without
   allocating, so hot-path call sites construct events only behind it;
   [span_begin]/[span_end] bracket a phase and are near-free when [obs]
   is [None] (one branch, no clock read). *)
let[@inline] tsink st =
  match st.obs with Some o when Obs.tracing o -> Some o | _ -> None

(* High-frequency exec-level sites (exec_done, cache consult, queue
   push/pop) record only in sampled iterations ([st.sampled]).
   Structural events (valid, crash, hang, fault, rescue) always record —
   they are rare. *)
let[@inline] tsink_exec st =
  match st.obs with
  | Some o when st.sampled && Obs.tracing o -> Some o
  | _ -> None

(* Phase spans follow the same per-iteration decision: in an unsampled
   iteration no monotonic clock is read, which is what keeps sampled
   tracing within a few percent of running blind. A skipped
   [span_begin] returns the sentinel 0 and [span_end]/[span_next]
   discard it. (CLOCK_MONOTONIC is ns since boot — it is never 0 in
   practice.) *)
let[@inline] span_begin st =
  match st.obs with
  | Some o when st.sampled -> Obs.span_start o
  | _ -> 0

let[@inline] span_end st phase t0 =
  if t0 <> 0 then
    match st.obs with None -> () | Some o -> Obs.span_end o phase t0

let[@inline] span_next st phase t0 =
  if t0 = 0 then 0
  else match st.obs with None -> 0 | Some o -> Obs.span_next o phase t0

let cache_counters st =
  match st.cache with
  | None -> (0, 0)
  | Some cache ->
    let s = Runner.Cache.stats cache in
    (s.Runner.Cache.hits, s.Runner.Cache.misses)

let maybe_snapshot st =
  match st.obs with
  | None -> ()
  | Some o ->
    if Obs.snapshot_due o then begin
      let hits, misses = cache_counters st in
      Obs.snapshot o ~exec:st.executions ~depth:(Pqueue.length st.queue)
        ~valid:st.valid_count
        ~cov:(Coverage.cardinal st.vbr)
        ~hits ~misses ~rescues:st.cache_rescues
        ~plateau:(st.executions - st.last_progress_at)
        ~hangs:st.hangs ~crashes:st.crash_total
    end

exception Budget_exhausted

(* Cache the suspension at input position [pos]. The presence probe
   hashes the prefix in place; the prefix string is only materialised
   for a genuine store (a miss), which the steady state almost never
   takes. *)
let remember_at cache journal input pos =
  if pos > 0 && pos <= String.length input
     && not (Runner.Cache.mem_prefix cache input ~len:pos)
  then
    match Runner.snapshot_at journal pos with
    | Some snap -> Runner.Cache.store cache (String.sub input 0 pos) snap
    | None -> ()

(* After an incremental run, remember the suspensions future executions
   will want: the one at the substitution index (children are
   [prefix ^ repl] sharing exactly that prefix) and the one at the end of
   the input (the extension probe [input ^ c] resumes there). *)
let remember_snapshots cache journal (run : Runner.run) =
  (match Runner.substitution_index run with
   | Some i -> remember_at cache journal run.input i
   | None -> ());
  remember_at cache journal run.input (String.length run.input)

(* Busy-wait used by [Slow] faults: deterministic work the optimizer
   cannot delete, with no observable effect besides wall clock. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc)

(* Run the subject under a planned fault. [Raise] and [Starve_fuel]
   replace the execution entirely (the faulty execution is skipped — its
   observations are whatever the degraded run saw); [Slow] burns time
   and then falls through to the normal path; [Corrupt_cache] poisons
   every cached snapshot first, exercising the rescue path below.
   Returns [None] when the normal execution should proceed. *)
let faulted_run st kind input =
  let registry = st.subject.Subject.registry in
  match kind with
  | Fault.Raise msg ->
    Some
      (Runner.exec ~registry
         ~parse:(fun _ -> raise (Fault.Injected msg))
         ~fuel:st.subject.Subject.fuel input)
  | Fault.Starve_fuel ->
    (* Raise [Out_of_fuel] before the parse makes any progress: a
       guaranteed [Hang] for every subject, including those whose parsers
       never consume fuel themselves. *)
    Some
      (Runner.exec ~registry
         ~parse:(fun _ -> raise Pdf_instr.Ctx.Out_of_fuel)
         ~fuel:st.subject.Subject.fuel input)
  | Fault.Slow n ->
    spin n;
    None
  | Fault.Corrupt_cache ->
    (match st.cache with
     | Some cache -> Runner.Cache.corrupt_all cache
     | None -> ());
    None
  | Fault.Kill_worker ->
    (* Worker death is a grid-level fault; inside the single-domain
       fuzzer loop it degrades to a no-op. *)
    None

(* One execution of the subject. [prefix_len] is the caller's hint that
   the first [prefix_len] characters of [input] were inherited verbatim
   from an already-executed parent; when the incremental engine is on and
   that prefix's suspension is cached, only the suffix is executed. The
   observable run is bit-identical either way. Returns the run and
   whether it resumed from a cached snapshot. *)
let execute st ~prefix_len input =
  if st.executions >= st.config.max_executions then raise Budget_exhausted;
  let fault =
    match st.faults with
    | None -> None
    | Some plan -> Fault.consume plan st.executions
  in
  st.executions <- st.executions + 1;
  (match fault with
   | None -> ()
   | Some kind ->
     match tsink st with
     | None -> ()
     | Some o ->
       Obs.emit o ~exec:st.executions
         (Event.Fault { kind = Fault.kind_label kind }));
  let injected =
    match fault with
    | None -> None
    | Some kind ->
      let t_exec = span_begin st in
      let run = faulted_run st kind input in
      span_end st Phase.Exec t_exec;
      run
  in
  let run, cached =
    match injected with
    | Some run -> (run, false)
    | None ->
      (match st.cache, st.machine with
       | Some cache, Some machine ->
         let t_cache = span_begin st in
         let consulted = prefix_len > 0 && prefix_len <= String.length input in
         let snap =
           if consulted then Runner.Cache.find_prefix cache input ~len:prefix_len
           else None
         in
         span_end st Phase.Cache t_cache;
         (if consulted then
            match tsink_exec st with
            | None -> ()
            | Some o ->
              Obs.emit o ~exec:st.executions
                (match snap with
                 | Some s -> Event.Cache_hit { saved = Runner.snapshot_pos s }
                 | None -> Event.Cache_miss));
         let t_exec = span_begin st in
         let (run, journal), cached =
           match snap with
           | Some snap -> begin
             let ((r, _) as resumed) = Runner.resume snap input in
             (* A crashing resume is ambiguous: the subject may crash on
                this input, or the snapshot may be corrupt. Invalidate
                the entry and re-execute cold — a real subject crash
                reproduces identically, a poisoned snapshot is healed
                with zero observable difference. *)
             match r.Runner.verdict with
             | Runner.Crash _ ->
               Runner.Cache.remove_prefix cache input ~len:prefix_len;
               st.cache_rescues <- st.cache_rescues + 1;
               (match tsink st with
                | None -> ()
                | Some o ->
                  Obs.emit o ~exec:st.executions
                    (Event.Rescue { prefix = prefix_len }));
               (Subject.exec_journaled st.subject machine input, false)
             | _ -> (resumed, true)
           end
           | None -> (Subject.exec_journaled st.subject machine input, false)
         in
         span_end st Phase.Exec t_exec;
         let t_store = span_begin st in
         remember_snapshots cache journal run;
         span_end st Phase.Cache t_store;
         (run, cached)
       | _ ->
         let t_exec = span_begin st in
         let run = Subject.run st.subject input in
         span_end st Phase.Exec t_exec;
         (run, false))
  in
  Pdf_instr.Hits.record st.hits run.Runner.touched;
  (match st.on_execution with None -> () | Some f -> f run);
  (run, cached)

(* Observe a completed run's path and return how often it had been seen
   before (the novelty signal of §3.2). *)
let note_path st run =
  let h = Runner.path_hash run in
  let slot = Paths.find_slot st.path_counts h in
  if slot >= 0 then begin
    let count = Paths.get_count st.path_counts slot in
    Paths.bump st.path_counts slot;
    count
  end
  else begin
    if Paths.count st.path_counts >= path_counts_cap st.config then begin
      Paths.reset st.path_counts;
      st.path_resets <- st.path_resets + 1
    end;
    Paths.add st.path_counts h 1;
    0
  end

let seen_add st h data =
  if Seen.count st.seen_inputs >= seen_inputs_cap st.config then begin
    Seen.reset st.seen_inputs;
    st.dedupe_resets <- st.dedupe_resets + 1
  end;
  Seen.add st.seen_inputs h data

(* [String.sub input 0 index ^ repl] in a single allocation. *)
let concat_blit input index repl =
  let rl = String.length repl in
  let b = Bytes.create (index + rl) in
  Bytes.blit_string input 0 b 0 index;
  Bytes.blit_string repl 0 b index rl;
  Bytes.unsafe_to_string b

(* Score and enqueue a candidate that already passed the dedupe and
   length gates. The queue entry carries the candidate's new-coverage
   count as aux scratch, letting a later valid input re-rank the queue
   incrementally (see [valid_input]). *)
let enqueue st (candidate : Candidate.t) =
  st.candidates_created <- st.candidates_created + 1;
  let t_score = span_begin st in
  let new_cov =
    Coverage.new_against candidate.parent_coverage ~baseline:st.vbr
  in
  let prio = Heuristic.score_with_cov st.config.heuristic ~new_cov candidate in
  let t_queue = span_next st Phase.Score t_score in
  Pqueue.push ~aux:new_cov st.queue prio candidate;
  span_end st Phase.Queue t_queue;
  (match st.on_queue_event with
   | None -> ()
   | Some f -> f (Pushed (prio, candidate.data)));
  (match tsink_exec st with
   | None -> ()
   | Some o ->
     Obs.emit o ~exec:st.executions
       (Event.Queue_push
          { prio; len = String.length candidate.data; depth = Pqueue.length st.queue }));
  (* Truncate with hysteresis: a full drop sorts the heap, so only do
     it after the queue has doubled past its bound. *)
  if Pqueue.length st.queue > 2 * st.config.queue_bound then begin
    let t_trunc = span_begin st in
    Pqueue.drop_worst st.queue st.config.queue_bound;
    span_end st Phase.Queue t_trunc;
    match st.on_queue_event with
    | None -> ()
    | Some f -> f (Truncated (observed_snapshot st))
  end;
  st.queue_peak <- max st.queue_peak (Pqueue.length st.queue)

(* Entry point for already-materialised candidates (seed inputs). *)
let push_candidate st (candidate : Candidate.t) =
  let data = candidate.Candidate.data in
  let h = Fnv.string data in
  if
    (not (Seen.mem_parts st.seen_inputs h data (String.length data) ""))
    && String.length data <= st.config.max_input_len
  then begin
    seen_add st h data;
    enqueue st candidate
  end

(* Algorithm 1, [addInputs]: one child per comparison made against the
   last compared input position, splicing in the expected character(s).
   The loop is allocation-disciplined: the comparison log is walked in
   place and each comparison streams its replacements
   ({!Comparison.iter_replacements}) into one [propose] closure built
   per call; the parent prefix is hashed once in place, each
   replacement extends that hash, and the dedupe table is probed before
   anything is built — a rejected duplicate allocates nothing at all.
   Only a genuinely fresh child is materialised, with a single [Bytes]
   blit. Dedupe and construction time lands in the [Gen] phase span;
   scoring and queue maintenance stay in [Score]/[Queue] inside
   [enqueue]. *)
let add_inputs st ~(parent : Candidate.t) (run : Runner.run) =
  match Runner.substitution_index run with
  | None -> ()
  | Some sub_index ->
    let t_gen = ref (span_begin st) in
    (* One substitution-index computation feeds every derived fact —
       the [~index] variant skips the per-call comparison-log rescan. *)
    let parent_coverage = Runner.coverage_up_to run ~index:sub_index in
    let avg_stack = Runner.avg_stack_of_last_two run in
    let path_count = note_path st run in
    let input = run.input in
    let index = min sub_index (String.length input) in
    let prefix_hash = Fnv.prefix input index in
    let propose repl =
      let len = index + String.length repl in
      (* A child equal to the parent input would only re-queue it;
         equal length plus a matching splice means equal strings (the
         prefix is shared by construction). *)
      let is_parent =
        len = String.length input && ends_with_at input index repl
      in
      if (not is_parent) && len <= st.config.max_input_len then begin
        let h = Fnv.continue prefix_hash repl in
        if not (Seen.mem_parts st.seen_inputs h input index repl) then begin
          let data = concat_blit input index repl in
          seen_add st h data;
          span_end st Phase.Gen !t_gen;
          enqueue st
            {
              Candidate.data;
              repl;
              parents = parent.parents + 1;
              parent_coverage;
              avg_stack;
              path_count;
            };
          t_gen := span_begin st
        end
      end
    in
    (* The comparisons at [sub_index] in log order — the order
       [Runner.comparisons_at] lists them in. *)
    let cs = run.comparisons in
    for i = 0 to Array.length cs - 1 do
      let c = Array.unsafe_get cs i in
      if c.Comparison.index = sub_index then
        Comparison.iter_replacements st.rng c propose
    done;
    span_end st Phase.Gen !t_gen

(* Algorithm 1, [validInp]: report, extend vBr, re-rank the queue. *)
let valid_input st ~(parent : Candidate.t) (run : Runner.run) =
  st.valid_rev <- run.input :: st.valid_rev;
  st.valid_count <- st.valid_count + 1;
  if st.first_valid_at = None then st.first_valid_at <- Some st.executions;
  st.on_valid run.input;
  (* The freshly covered outcomes relative to the old vBr — the only
     part of any queued candidate's score that this input can change. *)
  let delta = Coverage.diff run.coverage st.vbr in
  st.vbr <- Coverage.union st.vbr run.coverage;
  st.last_progress_at <- st.executions;
  (match tsink st with
   | None -> ()
   | Some o ->
     Obs.emit o ~exec:st.executions
       (Event.Valid
          { input = run.input; cov = Coverage.cardinal st.vbr; count = st.valid_count }));
  (* Incremental re-rank: a candidate's score depends on vBr only
     through [new_cov = |parent_coverage \ vBr|], and vBr just grew by
     [delta] (disjoint from the old vBr by construction), so the updated
     count is the cached one minus [|parent_coverage ∩ delta|].
     Candidates that miss the delta keep bit-identical priorities and
     are skipped; the rest re-score through the same arithmetic a full
     rerank would use. The re-scoring lands in the Score phase. *)
  let t_rerank = span_begin st in
  Pqueue.update st.queue (fun (candidate : Candidate.t) ~aux ->
      let d = Coverage.inter_cardinal candidate.parent_coverage delta in
      if d = 0 then None
      else
        let new_cov = aux - d in
        Some (Heuristic.score_with_cov st.config.heuristic ~new_cov candidate, new_cov));
  span_end st Phase.Score t_rerank;
  (match st.on_queue_event with
   | None -> ()
   | Some f -> f (Reranked (observed_snapshot st)));
  add_inputs st ~parent run

let verdict_string (run : Runner.run) =
  match run.verdict with
  | Runner.Accepted -> "accepted"
  | Runner.Rejected _ -> "rejected"
  | Runner.Hang -> "hang"
  | Runner.Crash _ -> "crash"

(* Crash triage: count every crash, retain the first witness per
   (exn, site) identity up to the corpus bound, and emit a typed event
   marking whether the identity is fresh. *)
let record_crash st (run : Runner.run) (c : Runner.crash) =
  st.crash_total <- st.crash_total + 1;
  let key = (c.Runner.exn, c.Runner.site) in
  let fresh =
    match Hashtbl.find_opt st.crash_tab key with
    | Some entry ->
      Hashtbl.replace st.crash_tab key { entry with count = entry.count + 1 };
      false
    | None ->
      if Hashtbl.length st.crash_tab < crash_bound then begin
        Hashtbl.replace st.crash_tab key
          {
            exn = c.Runner.exn;
            site = c.Runner.site;
            detail = c.Runner.detail;
            input = run.Runner.input;
            first_at = st.executions;
            count = 1;
          };
        st.crash_order_rev <- key :: st.crash_order_rev;
        true
      end
      else false
  in
  match tsink st with
  | None -> ()
  | Some o ->
    Obs.emit o ~exec:st.executions
      (Event.Crash
         { exn = c.Runner.exn; site = c.Runner.site; fresh; total = st.crash_total })

let crashed (run : Runner.run) =
  match run.Runner.verdict with Runner.Crash _ -> true | _ -> false

(* Algorithm 1, [runCheck]: an input counts as valid only if it is
   accepted and covers branches no previous valid input covered. *)
let run_check st ~parent ~prefix_len input =
  (* Read the clock only when this execution's [Exec_done] will be
     recorded. *)
  let t0 = match tsink_exec st with Some o -> Obs.now_ns o | None -> 0 in
  let run, cached = execute st ~prefix_len input in
  (match run.Runner.verdict with
   | Runner.Hang -> begin
     st.hangs <- st.hangs + 1;
     match tsink st with
     | None -> ()
     | Some o -> Obs.emit o ~exec:st.executions (Event.Hang { total = st.hangs })
   end
   | Runner.Crash c -> record_crash st run c
   | _ -> ());
  let cov_before =
    match tsink_exec st with None -> 0 | Some _ -> Coverage.cardinal st.vbr
  in
  let valid =
    Runner.accepted run && Coverage.new_against run.coverage ~baseline:st.vbr > 0
  in
  if valid then valid_input st ~parent run;
  (match tsink_exec st with
   | None -> ()
   | Some o ->
     let cov_now = Coverage.cardinal st.vbr in
     Obs.emit o ~exec:st.executions
       (Event.Exec_done
          {
            dur_ns = Obs.now_ns o - t0;
            verdict = verdict_string run;
            cached;
            sub_index =
              (match Runner.substitution_index run with Some i -> i | None -> -1);
            cov = cov_now;
            cov_delta = cov_now - cov_before;
            valid;
            len = String.length run.input;
          }));
  maybe_snapshot st;
  (valid, run)

(* Restarts and extension probes happen on every iteration of the main
   loop; keep them allocation-free by passing raw characters around and
   interning the 1-character seed strings. *)
let singleton_strings = Array.init 256 (fun i -> String.make 1 (Char.chr i))
let random_char st = Rng.printable st.rng
let seed_of_char c = Candidate.seed singleton_strings.(Char.code c)

(* [data ^ String.make 1 c] in one allocation. *)
let extend data c =
  let n = String.length data in
  let b = Bytes.create (n + 1) in
  Bytes.blit_string data 0 b 0 n;
  Bytes.unsafe_set b n c;
  Bytes.unsafe_to_string b

let make_state ~on_valid ~on_queue_event ~on_execution ~obs ~faults ~rng config
    subject =
  let machine = if config.incremental then subject.Subject.machine else None in
  {
    config;
    subject;
    machine;
    cache =
      (match machine with
       | Some _ -> Some (Runner.Cache.create ())
       | None -> None);
    rng;
    queue = Pqueue.create ();
    on_queue_event;
    faults;
    obs;
    sampled = (match obs with Some o -> Obs.sampled o ~exec:0 | None -> false);
    vbr = Coverage.empty;
    hits = Pdf_instr.Hits.create ();
    valid_rev = [];
    valid_count = 0;
    last_progress_at = 0;
    executions = 0;
    candidates_created = 0;
    queue_peak = 0;
    first_valid_at = None;
    dedupe_resets = 0;
    path_resets = 0;
    path_counts = Paths.create ();
    seen_inputs = Seen.create ();
    crash_tab = Hashtbl.create 16;
    crash_order_rev = [];
    crash_total = 0;
    hangs = 0;
    cache_rescues = 0;
    on_valid;
    on_execution;
  }

(* A checkpoint captures the loop-top instant: the candidate about to be
   executed, the queue without it, and the RNG exactly as the previous
   iteration left it. Resuming replays from that instant bit-for-bit
   (modulo cache accounting, which restarts cold). *)
let checkpoint_of st (current : Candidate.t) : Checkpoint.t =
  {
    ck_subject = st.subject.Subject.name;
    ck_config = st.config;
    ck_rng = Rng.state st.rng;
    ck_queue = Pqueue.snapshot st.queue;
    ck_current = current;
    ck_vbr = st.vbr;
    ck_valid_rev = st.valid_rev;
    ck_valid_count = st.valid_count;
    ck_first_valid_at = st.first_valid_at;
    ck_last_progress_at = st.last_progress_at;
    ck_executions = st.executions;
    ck_candidates_created = st.candidates_created;
    ck_queue_peak = st.queue_peak;
    ck_dedupe_resets = st.dedupe_resets;
    ck_path_resets = st.path_resets;
    ck_seen = Seen.fold (fun s acc -> s :: acc) st.seen_inputs [];
    ck_paths = Paths.fold (fun k v acc -> (k, v) :: acc) st.path_counts [];
    ck_hits = Pdf_instr.Hits.to_list st.hits;
    ck_hangs = st.hangs;
    ck_crashes =
      List.rev_map (fun key -> (key, Hashtbl.find st.crash_tab key))
        st.crash_order_rev;
    ck_crash_total = st.crash_total;
  }

let restore_state ~on_valid ~on_queue_event ~on_execution ~obs ~faults
    (ck : Checkpoint.t) subject =
  if not (String.equal subject.Subject.name ck.ck_subject) then
    invalid_arg
      (Printf.sprintf
         "Pfuzzer.resume_from: checkpoint was taken for subject %S, not %S"
         ck.ck_subject subject.Subject.name);
  let st =
    make_state ~on_valid ~on_queue_event ~on_execution ~obs ~faults
      ~rng:(Rng.of_state ck.ck_rng) ck.ck_config subject
  in
  (* The queue snapshot is in insertion order; re-pushing in that order
     preserves the heap's priority/insertion-order total order, so the
     resumed run pops the exact sequence the original would have. *)
  (* vBr must be restored before the queue so each re-pushed entry's
     cached new-coverage aux is computed against the same baseline the
     snapshot priorities reflect. *)
  st.vbr <- ck.ck_vbr;
  List.iter
    (fun (prio, (c : Candidate.t)) ->
      Pqueue.push
        ~aux:(Coverage.new_against c.parent_coverage ~baseline:st.vbr)
        st.queue prio c)
    ck.ck_queue;
  List.iter (fun s -> Seen.add st.seen_inputs (Fnv.string s) s) ck.ck_seen;
  List.iter (fun (h, n) -> Paths.add st.path_counts h n) ck.ck_paths;
  List.iter (fun (key, cr) -> Hashtbl.replace st.crash_tab key cr) ck.ck_crashes;
  st.crash_order_rev <- List.rev_map fst ck.ck_crashes;
  st.hits <- Pdf_instr.Hits.of_list ck.ck_hits;
  st.valid_rev <- ck.ck_valid_rev;
  st.valid_count <- ck.ck_valid_count;
  st.first_valid_at <- ck.ck_first_valid_at;
  st.last_progress_at <- ck.ck_last_progress_at;
  st.executions <- ck.ck_executions;
  st.candidates_created <- ck.ck_candidates_created;
  st.queue_peak <- ck.ck_queue_peak;
  st.dedupe_resets <- ck.ck_dedupe_resets;
  st.path_resets <- ck.ck_path_resets;
  st.hangs <- ck.ck_hangs;
  st.crash_total <- ck.ck_crash_total;
  (st, ck.ck_current)

(* The campaign so far as a result record, straight from loop state:
   [Checkpoint.partial_result (checkpoint_of st c)] without sorting the
   queue or flattening the dedupe and path tables, which a result does
   not carry. The hit-counts are copied through their canonical list
   form, as the checkpoint does, so the record is Marshal-identical to
   the checkpoint's and stays valid while the campaign goes on. *)
let partial_result st =
  {
    valid_inputs = List.rev st.valid_rev;
    valid_coverage = st.vbr;
    hits = Pdf_instr.Hits.of_list (Pdf_instr.Hits.to_list st.hits);
    executions = st.executions;
    candidates_created = st.candidates_created;
    queue_peak = st.queue_peak;
    first_valid_at = st.first_valid_at;
    dedupe_resets = st.dedupe_resets;
    path_resets = st.path_resets;
    cache = no_cache_stats;
    crashes =
      List.rev_map (fun key -> Hashtbl.find st.crash_tab key) st.crash_order_rev;
    crash_total = st.crash_total;
    hangs = st.hangs;
    wall_clock_s = 0.0;
    execs_per_sec = 0.0;
  }

let drive st ~first ~checkpoint_every ~on_checkpoint ~on_progress =
  let t_start = Pdf_obs.Clock.now_ns () in
  (match st.obs with
   | None -> ()
   | Some o ->
     Obs.run_meta o ~subject:st.subject.Subject.name
       ~outcomes:(Pdf_instr.Site.total_outcomes st.subject.Subject.registry)
       ~seed:st.config.seed ~max_executions:st.config.max_executions
       ~incremental:(st.machine <> None));
  let next_candidate () =
    (* The popped priority is only ever reported to listeners; when
       nobody is listening, take the value-only pop and skip the
       (prio, value) pair allocation. Both paths remove the same entry. *)
    match st.on_queue_event with
    | None when tsink_exec st = None ->
      let t_pop = span_begin st in
      let popped = Pqueue.pop st.queue in
      span_end st Phase.Queue t_pop;
      (match popped with
       | Some c -> c
       | None -> seed_of_char (random_char st))
    | listener -> (
      let t_pop = span_begin st in
      let popped = Pqueue.pop_with_priority st.queue in
      span_end st Phase.Queue t_pop;
      match popped with
      | Some (prio, c) ->
        (match listener with
         | None -> ()
         | Some f -> f (Popped (prio, c.Candidate.data)));
        (match tsink_exec st with
         | None -> ()
         | Some o ->
           Obs.emit o ~exec:st.executions
             (Event.Queue_pop
                {
                  prio;
                  len = String.length c.Candidate.data;
                  depth = Pqueue.length st.queue;
                }));
        c
      | None ->
        (* Queue exhausted: restart from a fresh random character, as at
           the beginning of the search. *)
        seed_of_char (random_char st))
  in
  (try
     let candidate = ref first in
     let last_checkpoint = ref st.executions in
     let hooked = Option.is_some on_checkpoint || Option.is_some on_progress in
     while true do
       (* One sampling decision per iteration, keyed on the execution
          count at its top: both executions, the children they queue and
          the pop that ends the iteration are recorded, or none are. *)
       (match st.obs with
        | None -> ()
        | Some o -> st.sampled <- Obs.sampled o ~exec:st.executions);
       if hooked && st.executions - !last_checkpoint >= checkpoint_every
       then begin
         (match on_checkpoint with
          | Some save -> save (checkpoint_of st !candidate)
          | None -> ());
         (match on_progress with
          | Some report -> report (partial_result st)
          | None -> ());
         last_checkpoint := st.executions
       end;
       let c = !candidate in
       (* A queued candidate is [prefix ^ repl] for an already-executed
          parent input sharing [prefix] — exactly the part a cached
          suspension lets us skip. *)
       let prefix_len = String.length c.data - String.length c.repl in
       let valid, run = run_check st ~parent:c ~prefix_len c.data in
       if (not valid) && not (crashed run) then begin
         (* Second execution: the same input extended by one random
            character, probing whether the parser wants more input. The
            just-executed candidate is the extension's parent prefix. A
            crashed candidate is triaged and dropped instead — extending
            past the crash point would only reproduce it. *)
         let extended = extend c.data (random_char st) in
         if String.length extended <= st.config.max_input_len then begin
           let valid2, run2 =
             run_check st ~parent:c ~prefix_len:(String.length c.data) extended
           in
           if (not valid2) && not (crashed run2) then add_inputs st ~parent:c run2
         end
       end;
       candidate := next_candidate ()
     done
   with Budget_exhausted -> ());
  (match st.obs with
   | None -> ()
   | Some o ->
     Obs.finish o ~exec:st.executions ~valid:st.valid_count
       ~cov:(Coverage.cardinal st.vbr));
  let wall_ns = Pdf_obs.Clock.now_ns () - t_start in
  let wall_clock_s = float_of_int wall_ns /. 1e9 in
  {
    valid_inputs = List.rev st.valid_rev;
    valid_coverage = st.vbr;
    hits = st.hits;
    executions = st.executions;
    candidates_created = st.candidates_created;
    queue_peak = st.queue_peak;
    first_valid_at = st.first_valid_at;
    dedupe_resets = st.dedupe_resets;
    path_resets = st.path_resets;
    cache =
      (match st.cache with
       | None -> { no_cache_stats with rescues = st.cache_rescues }
       | Some cache ->
         let s = Runner.Cache.stats cache in
         {
           hits = s.Runner.Cache.hits;
           misses = s.misses;
           evictions = s.evictions;
           chars_saved = s.chars_saved;
           rescues = st.cache_rescues;
         });
    crashes =
      List.rev_map (fun key -> Hashtbl.find st.crash_tab key) st.crash_order_rev;
    crash_total = st.crash_total;
    hangs = st.hangs;
    wall_clock_s;
    execs_per_sec =
      (if wall_ns <= 0 then 0.0
       else float_of_int st.executions /. wall_clock_s);
  }

let fuzz ?(on_valid = fun _ -> ()) ?on_queue_event ?on_execution ?obs ?faults
    ?(checkpoint_every = 1000) ?on_checkpoint ?on_progress
    ?(initial_inputs = []) config subject =
  let st =
    make_state ~on_valid ~on_queue_event ~on_execution ~obs ~faults
      ~rng:(Rng.make config.seed) config subject
  in
  List.iter (fun input -> push_candidate st (Candidate.seed input)) initial_inputs;
  let first = seed_of_char (random_char st) in
  drive st ~first ~checkpoint_every ~on_checkpoint ~on_progress

let resume_from ?(on_valid = fun _ -> ()) ?on_queue_event ?on_execution ?obs
    ?faults ?(checkpoint_every = 1000) ?on_checkpoint checkpoint subject =
  let st, first =
    restore_state ~on_valid ~on_queue_event ~on_execution ~obs ~faults
      checkpoint subject
  in
  drive st ~first ~checkpoint_every ~on_checkpoint ~on_progress:None
