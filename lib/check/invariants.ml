module Rng = Pdf_util.Rng
module Coverage = Pdf_instr.Coverage
module Runner = Pdf_instr.Runner
module Subject = Pdf_subjects.Subject
module Pfuzzer = Pdf_core.Pfuzzer
module Experiment = Pdf_eval.Experiment
module Dist = Pdf_eval.Dist

type check = { name : string; ok : bool; detail : string }

type report = { subject : string; checks : check list }

(* {1 Reference queue model}

   A list in insertion order with explicit sequence numbers. Pop must
   return the entry with maximal priority, earliest insertion first on
   ties — exactly {!Pdf_util.Pqueue}'s contract. Snapshot events are
   checked, not trusted: a re-rank must keep every entry in insertion
   order and may only lower priorities (vBr only grows, so
   [|parent_coverage \ vBr|] only shrinks, and every heuristic variant
   weighs it by +1 or 0), and a truncation must keep exactly the best
   [bound] entries. *)

module Queue_model = struct
  type entry = { prio : float; seq : int; data : string }

  type t = {
    mutable entries : entry list;
    mutable next_seq : int;
    mutable reranks : int;
    mutable truncations : int;
  }

  let create () = { entries = []; next_seq = 0; reranks = 0; truncations = 0 }

  let push t prio data =
    t.entries <- t.entries @ [ { prio; seq = t.next_seq; data } ];
    t.next_seq <- t.next_seq + 1

  (* Pop order: priority descending, then insertion ascending. *)
  let order a b =
    if a.prio > b.prio then -1 else if a.prio < b.prio then 1 else compare a.seq b.seq

  let best t =
    match t.entries with
    | [] -> None
    | e :: rest ->
      Some (List.fold_left (fun acc e -> if order e acc < 0 then e else acc) e rest)

  let remove t e = t.entries <- List.filter (fun e' -> e'.seq <> e.seq) t.entries

  let rerank t snapshot =
    t.reranks <- t.reranks + 1;
    let rec go acc entries snapshot =
      match (entries, snapshot) with
      | [], [] ->
        t.entries <- List.rev acc;
        None
      | e :: entries, (prio, data) :: snapshot ->
        if not (String.equal data e.data) then
          Some (Printf.sprintf "re-rank put %S where the model has %S" data e.data)
        else if prio > e.prio then
          Some (Printf.sprintf "re-rank raised %S from %g to %g" data e.prio prio)
        else go ({ e with prio } :: acc) entries snapshot
      | _ ->
        Some
          (Printf.sprintf "re-rank left %d entries, the model has %d"
             (List.length snapshot) (List.length t.entries))
    in
    go [] t.entries snapshot

  let truncate t ~bound snapshot =
    t.truncations <- t.truncations + 1;
    let kept =
      List.sort (fun a b -> compare a.seq b.seq)
        (List.filteri (fun i _ -> i < bound) (List.sort order t.entries))
    in
    if List.map (fun e -> (e.prio, e.data)) kept <> snapshot then
      Some
        (Printf.sprintf "truncation kept %d entries that are not the model's best %d"
           (List.length snapshot) (List.length kept))
    else begin
      t.entries <- kept;
      None
    end
end

(* Replay the fuzzer's queue events; return the model (for its counts)
   and the first violation. *)
let replay_queue_events (config : Pfuzzer.config) subject =
  let model = Queue_model.create () in
  let violation = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !violation = None then violation := Some m) fmt in
  let on_queue_event = function
    | Pfuzzer.Pushed (prio, data) -> Queue_model.push model prio data
    | Pfuzzer.Reranked snapshot ->
      Option.iter (fail "%s") (Queue_model.rerank model snapshot)
    | Pfuzzer.Truncated snapshot ->
      Option.iter (fail "%s")
        (Queue_model.truncate model ~bound:config.queue_bound snapshot)
    | Pfuzzer.Popped (prio, data) -> begin
      match Queue_model.best model with
      | None -> fail "popped %S from an empty model queue" data
      | Some e ->
        if e.prio <> prio || e.data <> data then
          fail "popped (%g, %S) but model expected (%g, %S)" prio data e.prio
            e.data
        else Queue_model.remove model e
    end
  in
  ignore (Pfuzzer.fuzz ~on_queue_event config subject);
  (model, !violation)

(* {1 Trace/coverage agreement} *)

let first_occurrences trace =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iter
    (fun oid ->
      if not (Hashtbl.mem seen oid) then begin
        Hashtbl.add seen oid ();
        acc := oid :: !acc
      end)
    trace;
  Array.of_list (List.rev !acc)

let trace_agreement subject input =
  let traced = Subject.run ~track_trace:true subject input in
  let plain = Subject.run subject input in
  if first_occurrences traced.trace <> traced.touched then
    Some (Printf.sprintf "%S: touched is not the trace's first-occurrence order" input)
  else if not (Coverage.equal (Coverage.of_array traced.touched) traced.coverage) then
    Some (Printf.sprintf "%S: touched and the coverage bitset disagree" input)
  else if traced.touched <> plain.touched then
    Some (Printf.sprintf "%S: tracking the trace perturbed touched" input)
  else if Runner.path_hash traced <> Runner.path_hash plain then
    Some (Printf.sprintf "%S: path_hash unstable across runs" input)
  else if traced.verdict <> plain.verdict then
    Some (Printf.sprintf "%S: tracking the trace perturbed the verdict" input)
  else if
    not (Coverage.subset (Runner.coverage_up_to_last_index traced) traced.coverage)
  then Some (Printf.sprintf "%S: coverage_up_to_last_index not a subset" input)
  else None

(* {1 Incremental-execution equivalence}

   The prefix-snapshot cache must be a pure optimisation: a run resumed
   from a parent's suspension must be bit-identical to a full
   re-execution, and a whole fuzzing session with the cache on must
   produce exactly the executions and results of one with the cache
   off. *)

let runs_equal (a : Runner.run) (b : Runner.run) =
  a.input = b.input && a.verdict = b.verdict
  && a.comparisons = b.comparisons
  && Coverage.equal a.coverage b.coverage
  && a.trace = b.trace && a.touched = b.touched
  && a.eof_access = b.eof_access && a.max_depth = b.max_depth
  && a.frames = b.frames

(* Resume from every read boundary of [input]'s journal — both against
   the identical input and against one with a mutated suffix — and
   demand bit-identity with the corresponding full execution. *)
let snapshot_resume_identity subject machine input =
  let full, journal = Subject.exec_journaled subject machine input in
  let resume_diverged p =
    match Runner.snapshot_at journal p with
    | None -> None
    | Some snap ->
      let resumed, _ = Runner.resume snap input in
      if not (runs_equal full resumed) then
        Some (Printf.sprintf "%S: resume at %d diverged from full execution" input p)
      else
        let mutated = String.sub input 0 p ^ "}X" in
        let full_m, _ = Subject.exec_journaled subject machine mutated in
        let resumed_m, _ = Runner.resume snap mutated in
        if not (runs_equal full_m resumed_m) then
          Some
            (Printf.sprintf "%S: resume at %d on a mutated suffix diverged" input p)
        else None
  in
  let rec check p =
    if p > String.length input then None
    else match resume_diverged p with Some _ as v -> v | None -> check (p + 1)
  in
  check 1

(* {1 The checks} *)

(* Deliberately ignores wall-clock timing and cache accounting (hit and
   miss counts): those legitimately differ between cache-on/off,
   interrupted/uninterrupted and slow/fast runs of the same campaign. *)
let results_equal (a : Pfuzzer.result) (b : Pfuzzer.result) =
  a.valid_inputs = b.valid_inputs
  && Coverage.equal a.valid_coverage b.valid_coverage
  && a.executions = b.executions
  && a.candidates_created = b.candidates_created
  && a.queue_peak = b.queue_peak
  && a.first_valid_at = b.first_valid_at
  && a.dedupe_resets = b.dedupe_resets
  && a.path_resets = b.path_resets
  && a.hangs = b.hangs
  && a.crash_total = b.crash_total
  && a.crashes = b.crashes
  && Pdf_instr.Hits.equal a.hits b.hits

let run ?(execs = 400) ?(seed = 1) subject =
  let checks = ref [] in
  let add name ok detail = checks := { name; ok; detail } :: !checks in
  let config = { Pfuzzer.default_config with seed; max_executions = execs } in
  let r1 = Pfuzzer.fuzz config subject in
  let r2 = Pfuzzer.fuzz config subject in
  add "pfuzzer-determinism" (results_equal r1 r2)
    (if results_equal r1 r2 then
       Printf.sprintf "%d executions, %d valid inputs, bit-identical twice"
         r1.executions (List.length r1.valid_inputs)
     else "two runs from the same seed diverged");
  (* Incremental ≡ full: the same seeded session with the prefix cache on
     and off must execute exactly the same inputs with bit-identical
     observations and results. *)
  let exec_stream incremental =
    let runs = ref [] in
    let result =
      Pfuzzer.fuzz
        ~on_execution:(fun r -> runs := r :: !runs)
        { config with incremental } subject
    in
    (result, List.rev !runs)
  in
  let r_inc, runs_inc = exec_stream true in
  let r_full, runs_full = exec_stream false in
  let streams_equal =
    List.length runs_inc = List.length runs_full
    && List.for_all2 runs_equal runs_inc runs_full
  in
  let incremental_ok = results_equal r_inc r_full && streams_equal in
  add "incremental-equivalence" incremental_ok
    (if incremental_ok then
       Printf.sprintf
         "%d executions bit-identical with cache on/off (%d hits, %d chars saved)%s"
         r_inc.executions r_inc.cache.hits r_inc.cache.chars_saved
         (if subject.Subject.machine = None then
            " — no machine-form parser, cache inert" else "")
     else if not streams_equal then
       "per-execution run streams diverge between incremental and full"
     else "aggregate results diverge between incremental and full");
  (* Snapshot/resume identity at every read boundary of sample inputs. *)
  (match subject.Subject.machine with
   | None ->
     add "snapshot-resume-identity" true "no machine-form parser; skipped"
   | Some machine ->
     let rng = Rng.make (seed + 23) in
     let sample =
       (let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        take 8 r1.valid_inputs)
       @ List.init 8 (fun _ -> Producer.random_input rng)
     in
     (match
        List.find_map (snapshot_resume_identity subject machine) sample
      with
      | None ->
        add "snapshot-resume-identity" true
          (Printf.sprintf "%d inputs resumed at every read boundary"
             (List.length sample))
      | Some violation -> add "snapshot-resume-identity" false violation));
  (* Checkpoint/resume equivalence: capture a checkpoint mid-campaign,
     round-trip it through the wire encoding, resume it (with a cold
     prefix cache) and demand the same campaign as the uninterrupted
     run — timing and cache accounting aside. *)
  let captured = ref None in
  let _interrupted : Pfuzzer.result =
    Pfuzzer.fuzz
      ~checkpoint_every:(max 1 (execs / 3))
      ~on_checkpoint:(fun ck -> if !captured = None then captured := Some ck)
      config subject
  in
  (match !captured with
   | None ->
     add "checkpoint-resume-equivalence" false "no checkpoint was captured"
   | Some ck ->
     (match Pfuzzer.Checkpoint.(decode (encode ck)) with
      | Error e ->
        add "checkpoint-resume-equivalence" false
          (Printf.sprintf "encode/decode round-trip failed: %s" e)
      | Ok ck' ->
        let resumed = Pfuzzer.resume_from ck' subject in
        let equal = results_equal r1 resumed in
        add "checkpoint-resume-equivalence" equal
          (if equal then
             Printf.sprintf
               "interrupted at execution %d, resumed to an identical campaign"
               (Pfuzzer.Checkpoint.executions ck')
           else "resumed campaign diverged from the uninterrupted run")));
  (* Replayed twice: with the campaign's own bound, and with one small
     enough that the queue truncates. *)
  let small_bound = { config with queue_bound = 32 } in
  (match
     (replay_queue_events config subject, replay_queue_events small_bound subject)
   with
   | (m, None), (m_small, None) ->
     add "queue-priority-monotonicity" true
       (Printf.sprintf
          "%d candidates replayed against the model, %d re-ranks checked; \
           at bound %d, %d re-ranks and %d truncations checked"
          r1.candidates_created m.reranks small_bound.queue_bound
          m_small.reranks m_small.truncations)
   | (_, Some violation), _ -> add "queue-priority-monotonicity" false violation
   | _, (_, Some violation) ->
     add "queue-priority-monotonicity" false
       (Printf.sprintf "at bound %d: %s" small_bound.queue_bound violation));
  (* Coverage-union monotonicity: replay the valid inputs in discovery
     order. Each must be accepted, contribute new coverage over its
     predecessors, and their union must be the reported set. *)
  let union = ref Coverage.empty in
  let monotone = ref true in
  let why = ref "" in
  List.iter
    (fun input ->
      let run = Subject.run subject input in
      if not (Runner.accepted run) then begin
        monotone := false;
        why := Printf.sprintf "reported valid input %S is not accepted" input
      end
      else if Coverage.new_against run.coverage ~baseline:!union = 0 then begin
        monotone := false;
        why := Printf.sprintf "valid input %S added no new coverage" input
      end;
      let extended = Coverage.union !union run.coverage in
      if not (Coverage.subset !union extended) then begin
        monotone := false;
        why := "coverage union shrank"
      end;
      union := extended)
    r1.valid_inputs;
  if !monotone && not (Coverage.equal !union r1.valid_coverage) then begin
    monotone := false;
    why := "union of valid inputs' coverage differs from reported valid_coverage"
  end;
  add "coverage-union-monotonicity" !monotone
    (if !monotone then
       Printf.sprintf "%d valid inputs, %d outcomes"
         (List.length r1.valid_inputs)
         (Coverage.cardinal !union)
     else !why);
  (* Grid determinism: the parallel evaluation must be bit-identical to
     the sequential one. *)
  let econfig =
    {
      Experiment.budget_units = execs * 100;
      seeds = [ seed; seed + 1 ];
      verbose = false;
    }
  in
  let sequential = Experiment.run ~jobs:1 econfig [ subject ] in
  let parallel = Experiment.run ~jobs:3 econfig [ subject ] in
  add "grid-determinism"
    (Experiment.equal sequential parallel)
    (if Experiment.equal sequential parallel then "jobs:1 = jobs:3 on the full tool grid"
     else "jobs:1 and jobs:3 grids differ");
  (* Distributed equivalence: the same campaign through the in-process
     sequential reference and through fleets of 1, 2 and 4 workers must
     merge to one bit-identical result — the shard plan, not the
     process topology, defines the campaign. Grid determinism above has
     already spawned domains, and OCaml 5 forbids [Unix.fork] for the
     rest of the process's life after that, so the fleets here go
     through [Dist.simulate_campaign] — same plan, assignment, wire
     encode/decode and merge, minus the fork (forked campaigns are
     exercised by [test_dist] and the CLI, which fork first). *)
  let dist_shards = 4 in
  let dist_ref = Dist.reference ~shards:dist_shards config subject in
  let dist_results =
    List.map
      (fun workers -> Dist.simulate_campaign ~workers ~shards:dist_shards config subject)
      [ 1; 2; 4 ]
  in
  let dist_vs_ref = List.for_all (results_equal dist_ref) dist_results in
  let dist_bytes = List.map (fun r -> Marshal.to_string r []) dist_results in
  let dist_bitwise =
    match dist_bytes with
    | first :: rest -> List.for_all (String.equal first) rest
    | [] -> false
  in
  add "dist-equivalence"
    (dist_vs_ref && dist_bitwise)
    (if dist_vs_ref && dist_bitwise then
       Printf.sprintf
         "reference = workers:1 = workers:2 = workers:4 (%d shards, in-process protocol)"
         dist_shards
     else if not dist_vs_ref then
       "a simulated campaign diverged from the sequential reference"
     else "merged results differ bitwise across worker counts");
  (* Trace/coverage agreement over a mixed sample: the fuzzer's valid
     inputs plus random strings. *)
  let rng = Rng.make (seed + 17) in
  let sample =
    (let rec take n = function
       | x :: rest when n > 0 -> x :: take (n - 1) rest
       | _ -> []
     in
     take 15 r1.valid_inputs)
    @ List.init 30 (fun _ -> Producer.random_input rng)
  in
  (match List.find_map (trace_agreement subject) sample with
   | None ->
     add "trace-coverage-agreement" true
       (Printf.sprintf "%d inputs cross-checked" (List.length sample))
   | Some violation -> add "trace-coverage-agreement" false violation);
  { subject = subject.Subject.name; checks = List.rev !checks }

let ok r = List.for_all (fun c -> c.ok) r.checks

let pp_report ppf r =
  Format.fprintf ppf "invariants %s:" r.subject;
  List.iter
    (fun c ->
      Format.fprintf ppf "@.  [%s] %s: %s"
        (if c.ok then "ok" else "FAIL")
        c.name c.detail)
    r.checks
