module Rng = Pdf_util.Rng
module Atomic_file = Pdf_util.Atomic_file
module Coverage = Pdf_instr.Coverage
module Ctx = Pdf_instr.Ctx
module Runner = Pdf_instr.Runner
module View = Runner.View
module Comparison = Pdf_instr.Comparison
module Subject = Pdf_subjects.Subject
module Obs = Pdf_obs.Observer
module Event = Pdf_obs.Event
module Phase = Pdf_obs.Phase

type config = {
  seed : int;
  max_executions : int;
  max_input_len : int;
  heuristic : Heuristic.variant;
  queue_bound : int;
}

let default_config =
  {
    seed = 1;
    max_executions = 2000;
    max_input_len = 64;
    heuristic = Heuristic.Prose;
    queue_bound = 50_000;
  }

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  chars_saved : int;
}

let no_cache_stats = { hits = 0; misses = 0; evictions = 0; chars_saved = 0 }

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
   lists). *)

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
     v5: [config] lost [dedupe].
     v6: [config] lost [incremental]. *)
  let version = 6

  let envelope =
    { Pdf_util.Envelope.magic = "pfckpt"; version; noun = "checkpoint" }

  let subject_name t = t.ck_subject
  let executions t = t.ck_executions
  let config t = t.ck_config
  let encode (t : t) = Pdf_util.Envelope.encode envelope t

  let decode s : (t, string) Stdlib.result =
    Pdf_util.Envelope.decode envelope s ~pos:0 ~len:(String.length s)

  (* The campaign-so-far as a result record. Cache accounting and
     wall-clock are zero: a checkpoint carries neither. *)
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

(* Does [s.[pos ..]] start with [repl]? Bounds are the caller's: [s] is
   known to be long enough. It runs for every proposed child (the
   parent-equality gate), so it is a [while] loop over a register-able
   ref — a captured-variable [let rec] would cost a closure allocation
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

(* Path-novelty counts: open addressing with linear probing, as in
   {!Dedupe}, here over parallel (hash, count) arrays. The key is already a
   path hash ({!Runner.path_hash}), so the table maps hash -> count
   exactly as the [Hashtbl] it replaces did (hash collisions conflate
   paths in both). *)
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
  (* The context of every execution: made once per campaign and reset
     per execution, so an execution allocates no context and no buffers
     once they have grown. *)
  ctx : Ctx.t;
  (* The execution the loop is reading, refilled from [ctx] in place
     after every execution. It is read to the end before the next
     execution starts. *)
  view : View.t;
  rng : Rng.t;
  queue : Candidate_queue.t;
  on_queue_event : (queue_event -> unit) option;
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
  (* Candidate dedupe: every input queued since the last reset, stored
     as a prefix node plus a bit for the last byte. [add_inputs] opens
     its sibling group's prefix once, so "was prefix^repl already
     queued?" is a bit test for a one-byte replacement and a probe for a
     keyword, and no child is built to ask it. *)
  seen_inputs : Dedupe.t;
  (* Crash triage: bounded dedup table keyed on (exn, site) plus the
     first-seen order, so the corpus lists crashes in discovery order. *)
  crash_tab : (string * int, crash) Hashtbl.t;
  mutable crash_order_rev : (string * int) list;
  mutable crash_total : int;
  mutable hangs : int;
  on_valid : string -> unit;
  on_execution : (Runner.run -> unit) option;
  (* The [add_inputs] call in progress: its sibling group, its parent
     input and cut, and the start of its open [Gen] span. [propose]
     reads them, so it is built once per campaign, not per call. *)
  mutable gen_group : Candidate_queue.group;
  mutable gen_input : string;
  mutable gen_cut : int;
  mutable gen_t : int;
  propose : string -> unit;
}

(* The dedupe set would otherwise grow without bound over a long run:
   every distinct candidate ever queued stays in it. Cap it at a
   small multiple of the queue bound and reset generationally — after a
   reset some early duplicates may be re-executed once, which is cheap
   compared to retaining millions of dead inputs. *)
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
  List.map
    (fun (prio, (c : Candidate.t)) -> (prio, c.data))
    (Candidate_queue.snapshot st.queue)

(* Telemetry helpers. [tsink] answers "is a trace sink attached" without
   allocating, so hot-path call sites construct events only behind it;
   [span_begin]/[span_end] bracket a phase and are near-free when [obs]
   is [None] (one branch, no clock read). *)
let[@inline] tsink st =
  match st.obs with Some o when Obs.tracing o -> Some o | _ -> None

(* The high-frequency exec-level site (exec_done) records only in
   sampled iterations ([st.sampled]). Structural events (valid,
   crash, hang) always record — they are rare. *)
let[@inline] tsink_exec st =
  match st.obs with
  | Some o when st.sampled && Obs.tracing o -> Some o
  | _ -> None

(* Phase spans follow the same per-iteration decision: in an unsampled
   iteration no monotonic clock is read, which is what keeps sampled
   tracing within a few percent of running blind. A skipped
   [span_begin] returns the sentinel 0 and [span_end] discards it.
   (CLOCK_MONOTONIC is ns since boot — it is never 0 in practice.) *)
let[@inline] span_begin st =
  match st.obs with
  | Some o when st.sampled -> Obs.span_start o
  | _ -> 0

let[@inline] span_end st phase t0 =
  if t0 <> 0 then
    match st.obs with None -> () | Some o -> Obs.span_end o phase t0

let maybe_snapshot st =
  match st.obs with
  | None -> ()
  | Some o ->
    if Obs.snapshot_due o then
      Obs.snapshot o ~exec:st.executions ~depth:(Candidate_queue.length st.queue)
        ~valid:st.valid_count
        ~cov:(Coverage.cardinal st.vbr)
        ~plateau:(st.executions - st.last_progress_at)
        ~hangs:st.hangs ~crashes:st.crash_total

exception Budget_exhausted

(* One execution of the subject: the campaign's context is reset and
   the parse runs in it, and [st.view] reads the run in place
   afterwards. A listener gets an owned, packaged run. *)
let execute st input =
  if st.executions >= st.config.max_executions then raise Budget_exhausted;
  st.executions <- st.executions + 1;
  let t_exec = span_begin st in
  Ctx.reset st.ctx input;
  let verdict = Runner.run_in st.ctx ~parse:st.subject.Subject.parse in
  span_end st Phase.Exec t_exec;
  let v = st.view in
  View.of_ctx v st.ctx verdict;
  Pdf_instr.Hits.record_prefix st.hits v.touched ~len:v.n_touched;
  match st.on_execution with
  | None -> ()
  | Some f -> f (Runner.package st.ctx verdict)

(* Observe the viewed run's path and return how often it had been seen
   before (the novelty signal of §3.2). *)
let note_path st =
  let h = View.path_hash st.view in
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

(* [p ^ repl], [p] the dedupe set's open prefix, joins the set, which
   is reset generationally once it reaches its cap. *)
let seen_add st repl =
  if Dedupe.count st.seen_inputs >= seen_inputs_cap st.config then begin
    Dedupe.reset st.seen_inputs;
    st.dedupe_resets <- st.dedupe_resets + 1
  end;
  Dedupe.add st.seen_inputs repl

(* Enqueue the member of the open sibling group [g] whose replacement
   is [repl]; it already passed the dedupe and length gates. The queue
   scores it only if it starts a run, so that lands in the Queue phase;
   the member's priority and input are computed again only for a
   listener. *)
let enqueue st g repl =
  st.candidates_created <- st.candidates_created + 1;
  let t_queue = span_begin st in
  Candidate_queue.push st.queue g ~repl;
  span_end st Phase.Queue t_queue;
  (match st.on_queue_event with
   | None -> ()
   | Some f ->
     f
       (Pushed
          ( Candidate_queue.score st.queue g ~repl,
            Candidate_queue.member_data st.queue g ~repl )));
  (* Truncate with hysteresis: a truncation sorts every run, so it waits
     until the queue has doubled past its bound, at least [bound] pushes
     after the last one. *)
  if Candidate_queue.full st.queue then begin
    let t_trunc = span_begin st in
    Candidate_queue.truncate st.queue;
    span_end st Phase.Queue t_trunc;
    match st.on_queue_event with
    | None -> ()
    | Some f -> f (Truncated (observed_snapshot st))
  end;
  st.queue_peak <- Int.max st.queue_peak (Candidate_queue.length st.queue)

(* Entry point for the initial corpus: each seed is a group of one. *)
let push_seed st data =
  let len = String.length data in
  Dedupe.open_prefix st.seen_inputs "" 0;
  if (not (Dedupe.mem st.seen_inputs data)) && len <= st.config.max_input_len
  then begin
    seen_add st data;
    let (c : Candidate.t) = Candidate.seed data in
    let g =
      Candidate_queue.open_group st.queue ~input:data ~cut:len
        ~parents:c.parents ~avg_stack:c.avg_stack ~path_count:c.path_count
        ~parent_coverage:c.parent_coverage ~vbr:st.vbr
    in
    enqueue st g c.repl;
    Candidate_queue.close_group st.queue g
  end

(* One replacement of the [add_inputs] call in progress: the child
   [gen_input[0..gen_cut) ^ repl] joins the open sibling group unless
   it is the parent, too long or already queued. A child equal to the
   parent input would only re-queue it; equal length plus a matching
   splice means equal strings (the prefix is shared by construction). *)
let propose st repl =
  let input = st.gen_input and index = st.gen_cut in
  let len = index + String.length repl in
  let is_parent = len = String.length input && ends_with_at input index repl in
  if
    (not is_parent)
    && len <= st.config.max_input_len
    && not (Dedupe.mem st.seen_inputs repl)
  then begin
    seen_add st repl;
    span_end st Phase.Gen st.gen_t;
    enqueue st st.gen_group repl;
    st.gen_t <- span_begin st
  end

(* Algorithm 1, [addInputs]: one child per comparison made against the
   last compared input position, splicing in the expected character(s).
   The loop is allocation-disciplined: the comparison columns are
   walked in place and each comparison's kind streams its replacements
   ({!Comparison.iter_replacements}) into the state's [propose], built
   once per campaign, which reads the call's group, input, cut and span
   start from the state: a call builds no closure and no ref. The
   children share the prefix [input[0..index)], so the dedupe set opens
   it once, with one table probe for its node; a one-byte replacement
   is then a bit test and a bit set in that node's row, and only a
   keyword completion probes the table again. No child
   is built here at all: a fresh one is queued as its replacement in
   the sibling group, which holds the parent input and the cut, and its
   input is built when it is popped. Dedupe time lands in the [Gen]
   phase span; a push, with the scoring of a push that starts a run,
   lands in the [Queue] span inside [enqueue]. *)
let add_inputs st ~(parent : Candidate.t) =
  let v = st.view in
  let sub_index = View.substitution_index v in
  if sub_index >= 0 then begin
    st.gen_t <- span_begin st;
    (* One substitution-index computation feeds every derived fact —
       the [~index] variant skips the per-call comparison-log rescan. *)
    let parent_coverage = View.coverage_up_to v ~index:sub_index in
    let avg_stack = View.avg_stack_of_last_two v in
    let path_count = note_path st in
    let parents = parent.parents + 1 in
    let input = v.input in
    let index = Int.min sub_index (String.length input) in
    (* The children of this call are one sibling group: they share
       everything but their replacement, so the queue stores it once and
       counts the new coverage once. *)
    let group =
      Candidate_queue.open_group st.queue ~input ~cut:index ~parents
        ~avg_stack ~path_count ~parent_coverage ~vbr:st.vbr
    in
    Dedupe.open_prefix st.seen_inputs input index;
    st.gen_group <- group;
    st.gen_input <- input;
    st.gen_cut <- index;
    (* The comparisons at [sub_index] in log order — the order
       [Runner.comparisons_at] lists them in. *)
    let indices = v.comparisons.indices and kinds = v.comparisons.kinds in
    for i = 0 to v.n_comparisons - 1 do
      if Array.unsafe_get indices i = sub_index then
        Comparison.iter_replacements st.rng (Array.unsafe_get kinds i) st.propose
    done;
    span_end st Phase.Gen st.gen_t;
    Candidate_queue.close_group st.queue group;
    st.gen_group <- Candidate_queue.no_group
  end

(* Algorithm 1, [validInp]: report, extend vBr, re-rank the queue. *)
let valid_input st ~(parent : Candidate.t) =
  let input = st.view.input in
  st.valid_rev <- input :: st.valid_rev;
  st.valid_count <- st.valid_count + 1;
  if st.first_valid_at = None then st.first_valid_at <- Some st.executions;
  st.on_valid input;
  (* The freshly covered outcomes relative to the old vBr — the only
     part of any queued candidate's score that this input can change.
     A valid input is the only one whose coverage is built. *)
  let coverage = View.coverage st.view in
  let delta = Coverage.diff coverage st.vbr in
  st.vbr <- Coverage.union st.vbr coverage;
  st.last_progress_at <- st.executions;
  (match tsink st with
   | None -> ()
   | Some o ->
     Obs.emit o ~exec:st.executions
       (Event.Valid
          { input; cov = Coverage.cardinal st.vbr; count = st.valid_count }));
  (* Incremental re-rank: a candidate's score depends on vBr only
     through [|parent_coverage \ vBr|], and vBr just grew by [delta]
     (disjoint from the old vBr by construction), so the queue subtracts
     [|parent_coverage ∩ delta|] per sibling group and re-scores only
     the groups that moved. The re-scoring lands in the Score phase. *)
  let t_rerank = span_begin st in
  Candidate_queue.rerank st.queue ~delta;
  span_end st Phase.Score t_rerank;
  (match st.on_queue_event with
   | None -> ()
   | Some f -> f (Reranked (observed_snapshot st)));
  add_inputs st ~parent

let verdict_string = function
  | Runner.Accepted -> "accepted"
  | Runner.Rejected _ -> "rejected"
  | Runner.Hang -> "hang"
  | Runner.Crash _ -> "crash"

(* Crash triage: count every crash, retain the first witness per
   (exn, site) identity up to the corpus bound, and emit a typed event
   marking whether the identity is fresh. *)
let record_crash st (c : Runner.crash) =
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
            input = st.view.input;
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

let crashed st =
  match st.view.verdict with Runner.Crash _ -> true | _ -> false

(* Algorithm 1, [runCheck]: an input counts as valid only if it is
   accepted and covers branches no previous valid input covered. *)
let run_check st ~parent input =
  (* Read the clock only when this execution's [Exec_done] will be
     recorded. *)
  let t0 = match tsink_exec st with Some o -> Obs.now_ns o | None -> 0 in
  execute st input;
  let v = st.view in
  (match v.verdict with
   | Runner.Hang -> begin
     st.hangs <- st.hangs + 1;
     match tsink st with
     | None -> ()
     | Some o -> Obs.emit o ~exec:st.executions (Event.Hang { total = st.hangs })
   end
   | Runner.Crash c -> record_crash st c
   | _ -> ());
  let cov_before =
    match tsink_exec st with None -> 0 | Some _ -> Coverage.cardinal st.vbr
  in
  let valid =
    (match v.verdict with Runner.Accepted -> true | _ -> false)
    && View.new_outcomes v ~baseline:st.vbr > 0
  in
  if valid then valid_input st ~parent;
  (match tsink_exec st with
   | None -> ()
   | Some o ->
     let cov_now = Coverage.cardinal st.vbr in
     Obs.emit o ~exec:st.executions
       (Event.Exec_done
          {
            dur_ns = Obs.now_ns o - t0;
            verdict = verdict_string v.verdict;
            sub_index = View.substitution_index v;
            cov = cov_now;
            cov_delta = cov_now - cov_before;
            valid;
            len = String.length v.input;
            depth = Candidate_queue.length st.queue;
          }));
  maybe_snapshot st;
  valid

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

let make_state ~on_valid ~on_queue_event ~on_execution ~obs ~rng config
    subject =
  let rec st =
    {
      config;
      subject;
      ctx = Ctx.make ~registry:subject.Subject.registry ~fuel:subject.fuel "";
      view = View.create ();
      rng;
      queue = Candidate_queue.create config.heuristic ~bound:config.queue_bound;
      on_queue_event;
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
      seen_inputs = Dedupe.create ();
      crash_tab = Hashtbl.create 16;
      crash_order_rev = [];
      crash_total = 0;
      hangs = 0;
      on_valid;
      on_execution;
      gen_group = Candidate_queue.no_group;
      gen_input = "";
      gen_cut = 0;
      gen_t = 0;
      propose = (fun repl -> propose st repl);
    }
  in
  st

(* A checkpoint captures the loop-top instant: the candidate about to be
   executed, the queue without it, and the RNG exactly as the previous
   iteration left it. Resuming replays from that instant bit-for-bit. *)
let checkpoint_of st (current : Candidate.t) : Checkpoint.t =
  {
    ck_subject = st.subject.Subject.name;
    ck_config = st.config;
    ck_rng = Rng.state st.rng;
    ck_queue = Candidate_queue.snapshot st.queue;
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
    ck_seen = Dedupe.fold (fun s acc -> s :: acc) st.seen_inputs [];
    ck_paths = Paths.fold (fun k v acc -> (k, v) :: acc) st.path_counts [];
    ck_hits = Pdf_instr.Hits.to_list st.hits;
    ck_hangs = st.hangs;
    ck_crashes =
      List.rev_map (fun key -> (key, Hashtbl.find st.crash_tab key))
        st.crash_order_rev;
    ck_crash_total = st.crash_total;
  }

let restore_state ~on_valid ~on_queue_event ~on_execution ~obs
    (ck : Checkpoint.t) subject =
  if not (String.equal subject.Subject.name ck.ck_subject) then
    invalid_arg
      (Printf.sprintf
         "Pfuzzer.resume_from: checkpoint was taken for subject %S, not %S"
         ck.ck_subject subject.Subject.name);
  let st =
    make_state ~on_valid ~on_queue_event ~on_execution ~obs
      ~rng:(Rng.of_state ck.ck_rng) ck.ck_config subject
  in
  (* The queue snapshot is in insertion order; re-pushing in that order
     preserves the heap's priority/insertion-order total order, so the
     resumed run pops the exact sequence the original would have. vBr
     must be restored first: each restored entry's new-coverage count is
     taken against it. *)
  st.vbr <- ck.ck_vbr;
  Candidate_queue.restore st.queue ~vbr:st.vbr ck.ck_queue;
  (* The dedupe set's members come back whole, under the empty prefix,
     in any order. *)
  Dedupe.open_prefix st.seen_inputs "" 0;
  List.iter (Dedupe.add st.seen_inputs) ck.ck_seen;
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

let drive st ~first ~checkpoint_every ~on_checkpoint =
  let t_start = Pdf_obs.Clock.now_ns () in
  (match st.obs with
   | None -> ()
   | Some o ->
     Obs.run_meta o ~subject:st.subject.Subject.name
       ~outcomes:(Pdf_instr.Site.total_outcomes st.subject.Subject.registry)
       ~seed:st.config.seed ~max_executions:st.config.max_executions);
  let next_candidate () =
    (* The popped priority is only ever reported to a listener; when
       nobody is listening, take the value-only pop and skip the
       (prio, value) pair allocation. Both paths remove the same entry.
       An exhausted queue restarts from a fresh random character, as at
       the beginning of the search. *)
    match st.on_queue_event with
    | None ->
      let t_pop = span_begin st in
      let popped = Candidate_queue.pop st.queue in
      span_end st Phase.Queue t_pop;
      (match popped with
       | Some c -> c
       | None -> seed_of_char (random_char st))
    | Some f -> (
      let t_pop = span_begin st in
      let popped = Candidate_queue.pop_with_priority st.queue in
      span_end st Phase.Queue t_pop;
      match popped with
      | Some (prio, c) ->
        f (Popped (prio, c.Candidate.data));
        c
      | None -> seed_of_char (random_char st))
  in
  (try
     let candidate = ref first in
     let last_checkpoint = ref st.executions in
     while true do
       (* One sampling decision per iteration, keyed on the execution
          count at its top: both executions, the children they queue and
          the pop that ends the iteration are recorded, or none are. *)
       (match st.obs with
        | None -> ()
        | Some o -> st.sampled <- Obs.sampled o ~exec:st.executions);
       (match on_checkpoint with
        | Some save when st.executions - !last_checkpoint >= checkpoint_every ->
          save (checkpoint_of st !candidate);
          last_checkpoint := st.executions
        | _ -> ());
       let c = !candidate in
       let valid = run_check st ~parent:c c.data in
       if (not valid) && not (crashed st) then begin
         (* Second execution: the same input extended by one random
            character, probing whether the parser wants more input. A
            crashed candidate is triaged and dropped instead — extending
            past the crash point would only reproduce it. *)
         let extended = extend c.data (random_char st) in
         if String.length extended <= st.config.max_input_len then begin
           let valid2 = run_check st ~parent:c extended in
           if (not valid2) && not (crashed st) then add_inputs st ~parent:c
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
    cache = no_cache_stats;
    crashes =
      List.rev_map (fun key -> Hashtbl.find st.crash_tab key) st.crash_order_rev;
    crash_total = st.crash_total;
    hangs = st.hangs;
    wall_clock_s;
    execs_per_sec =
      (if wall_ns <= 0 then 0.0
       else float_of_int st.executions /. wall_clock_s);
  }

let fuzz ?(on_valid = fun _ -> ()) ?on_queue_event ?on_execution ?obs
    ?(checkpoint_every = 1000) ?on_checkpoint ?(initial_inputs = []) config subject =
  let st =
    make_state ~on_valid ~on_queue_event ~on_execution ~obs
      ~rng:(Rng.make config.seed) config subject
  in
  List.iter (push_seed st) initial_inputs;
  let first = seed_of_char (random_char st) in
  drive st ~first ~checkpoint_every ~on_checkpoint

let resume_from ?(on_valid = fun _ -> ()) ?on_queue_event ?on_execution ?obs
    ?(checkpoint_every = 1000) ?on_checkpoint checkpoint subject =
  let st, first =
    restore_state ~on_valid ~on_queue_event ~on_execution ~obs checkpoint
      subject
  in
  drive st ~first ~checkpoint_every ~on_checkpoint
