module Pfuzzer = Pdf_core.Pfuzzer
module Heuristic = Pdf_core.Heuristic
module Candidate = Pdf_core.Candidate
module Coverage = Pdf_instr.Coverage
module Catalog = Pdf_subjects.Catalog
module Subject = Pdf_subjects.Subject

let qtest = QCheck_alcotest.to_alcotest

(* {1 Heuristic} *)

let candidate ?(data = "ab") ?(repl = "b") ?(parents = 1) ?(cov = [])
    ?(avg_stack = 0.0) ?(path_count = 0) () =
  {
    Candidate.data;
    repl;
    parents;
    parent_coverage = Coverage.of_list cov;
    avg_stack;
    path_count;
  }

let score ?(variant = Heuristic.Prose) ?(vbr = Coverage.empty) c =
  Heuristic.score variant ~vbr c

let test_heuristic_terms () =
  let base = candidate () in
  Alcotest.(check bool) "new coverage raises priority" true
    (score (candidate ~cov:[ 1; 2; 3 ] ()) > score base);
  Alcotest.(check bool) "longer input lowers priority" true
    (score (candidate ~data:"abcdef" ()) < score base);
  Alcotest.(check bool) "longer replacement raises priority" true
    (score (candidate ~repl:"while" ()) > score base);
  Alcotest.(check bool) "deeper stack lowers priority" true
    (score (candidate ~avg_stack:5.0 ()) < score base);
  Alcotest.(check bool) "repeated path lowers priority" true
    (score (candidate ~path_count:4 ()) < score base)

let test_heuristic_vbr () =
  let c = candidate ~cov:[ 1; 2; 3 ] () in
  Alcotest.(check bool) "already-covered branches stop counting" true
    (score ~vbr:(Coverage.of_list [ 1; 2 ]) c < score c)

let test_heuristic_parents_sign () =
  let shallow = candidate ~parents:0 () and deep = candidate ~parents:5 () in
  Alcotest.(check bool) "prose: fewer parents rank higher" true
    (score ~variant:Heuristic.Prose shallow > score ~variant:Heuristic.Prose deep);
  Alcotest.(check bool) "paper formula: more parents rank higher" true
    (score ~variant:Heuristic.Paper_formula deep
     > score ~variant:Heuristic.Paper_formula shallow)

let test_heuristic_variants () =
  Alcotest.(check int) "eight variants" 8 (List.length Heuristic.all);
  let long = candidate ~data:(String.make 30 'x') () in
  let short = candidate ~data:"x" () in
  Alcotest.(check bool) "dfs prefers long" true
    (score ~variant:Heuristic.Dfs long > score ~variant:Heuristic.Dfs short);
  Alcotest.(check bool) "bfs prefers short" true
    (score ~variant:Heuristic.Bfs short > score ~variant:Heuristic.Bfs long);
  Alcotest.(check bool) "no_length ignores length" true
    (score ~variant:Heuristic.No_length long = score ~variant:Heuristic.No_length short)

let test_candidate_seed () =
  let c = Candidate.seed "x" in
  Alcotest.(check string) "data" "x" c.Candidate.data;
  Alcotest.(check string) "no replacement" "" c.Candidate.repl;
  Alcotest.(check int) "no parents" 0 c.Candidate.parents

(* {1 The fuzzer} *)

let fuzz ?(seed = 1) ?(execs = 2000) ?(heuristic = Heuristic.Prose) name =
  let subject = Catalog.find name in
  ( Pfuzzer.fuzz
      { Pfuzzer.default_config with seed; max_executions = execs; heuristic }
      subject,
    subject )

let test_finds_expr_inputs () =
  let result, subject = fuzz "expr" in
  Alcotest.(check bool) "finds several valid inputs" true
    (List.length result.valid_inputs >= 5);
  List.iter
    (fun input ->
      if not (Subject.accepts subject input) then
        Alcotest.failf "reported valid input %S is rejected" input)
    result.valid_inputs

let test_valid_inputs_cover_new_code () =
  (* Each reported input must have contributed new coverage at the time
     it was found, so the union grows strictly along the list. *)
  let result, subject = fuzz "expr" in
  let _ =
    List.fold_left
      (fun acc input ->
        let run = Subject.run subject input in
        let grown = Coverage.union acc run.Pdf_instr.Runner.coverage in
        if Coverage.cardinal grown = Coverage.cardinal acc then
          Alcotest.failf "input %S added no coverage" input;
        grown)
      Coverage.empty result.valid_inputs
  in
  ()

let test_deterministic () =
  let r1, _ = fuzz "json" ~execs:1500 in
  let r2, _ = fuzz "json" ~execs:1500 in
  Alcotest.(check (list string)) "same seed, same valid inputs" r1.valid_inputs
    r2.valid_inputs

let test_seed_sensitivity () =
  let r1, _ = fuzz "expr" ~seed:1 in
  let r2, _ = fuzz "expr" ~seed:2 in
  (* Extremely unlikely to coincide exactly. *)
  Alcotest.(check bool) "different seeds explore differently" true
    (r1.valid_inputs <> r2.valid_inputs || r1.executions <> r2.executions)

let test_budget_respected () =
  let result, _ = fuzz "expr" ~execs:100 in
  Alcotest.(check int) "exactly the budget" 100 result.executions

let test_finds_json_keywords () =
  let result, subject = fuzz "json" ~execs:20_000 ~seed:1 in
  let tags = Pdf_eval.Token_report.found_tags subject result.valid_inputs in
  List.iter
    (fun kw ->
      Alcotest.(check bool) (Printf.sprintf "finds %s" kw) true (List.mem kw tags))
    [ "true"; "false"; "null" ]

let test_finds_paren_nesting () =
  let result, _ = fuzz "paren" ~execs:4000 in
  Alcotest.(check bool) "finds balanced inputs" true (List.length result.valid_inputs > 0)

let test_first_valid_at () =
  let result, _ = fuzz "expr" in
  match result.first_valid_at with
  | None -> Alcotest.fail "no valid input found"
  | Some n ->
    Alcotest.(check bool) "within budget" true (n >= 1 && n <= result.executions)

let test_queue_stats () =
  let result, _ = fuzz "expr" in
  Alcotest.(check bool) "candidates were created" true (result.candidates_created > 0);
  Alcotest.(check bool) "queue grew" true (result.queue_peak > 0)

let test_small_queue_bound () =
  let subject = Catalog.find "expr" in
  let result =
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 1500; queue_bound = 50 }
      subject
  in
  Alcotest.(check bool) "still finds inputs with a tiny queue" true
    (List.length result.valid_inputs > 0)

let test_max_input_len () =
  let subject = Catalog.find "paren" in
  let result =
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 3000; max_input_len = 4 }
      subject
  in
  List.iter
    (fun input ->
      Alcotest.(check bool) "respects max length" true (String.length input <= 4))
    result.valid_inputs

let test_fuzzer_on_table_subject () =
  (* The core algorithm is engine-agnostic: it works unchanged on the
     table-driven driver because it only consumes run observations. *)
  let result =
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 3000 }
      Pdf_tables.Grammars.table_expr
  in
  Alcotest.(check bool) "finds valid inputs on a table parser" true
    (List.length result.valid_inputs >= 3)

let test_initial_inputs_seed_queue () =
  (* A seeded corpus lets the fuzzer skip the discovery phase: with the
     paper's arithmetic subject and a seed input exercising parentheses,
     the paren-handling branches are covered within a small budget. *)
  let subject = Catalog.find "expr" in
  let config = { Pfuzzer.default_config with max_executions = 400 } in
  let unseeded = Pfuzzer.fuzz config subject in
  let seeded = Pfuzzer.fuzz ~initial_inputs:[ "(2-94)" ] config subject in
  let paren_covered (r : Pfuzzer.result) =
    List.exists (fun input -> String.contains input '(') r.valid_inputs
  in
  Alcotest.(check bool) "seeded run reaches parentheses" true (paren_covered seeded);
  (* The unseeded run with the same tiny budget almost surely has not;
     this is a smoke check of the seeding path, not a strong claim. *)
  ignore unseeded

(* {1 Incremental execution} *)

let test_incremental_equivalence () =
  (* The prefix-snapshot cache is a pure optimisation: with it on and
     off, the same seed must produce bit-identical per-execution streams
     and results. *)
  let subject = Catalog.find "json" in
  let stream incremental =
    let runs = ref [] in
    let result =
      Pfuzzer.fuzz
        ~on_execution:(fun run -> runs := run :: !runs)
        { Pfuzzer.default_config with max_executions = 2000; incremental }
        subject
    in
    (result, List.rev !runs)
  in
  let on, runs_on = stream true in
  let off, runs_off = stream false in
  Alcotest.(check (list string)) "same valid inputs" off.valid_inputs on.valid_inputs;
  Alcotest.(check int) "same executions" off.executions on.executions;
  Alcotest.(check bool) "same valid coverage" true
    (Coverage.equal off.valid_coverage on.valid_coverage);
  Alcotest.(check int) "same stream length" (List.length runs_off)
    (List.length runs_on);
  List.iter2
    (fun (a : Pdf_instr.Runner.run) (b : Pdf_instr.Runner.run) ->
      if
        a.input <> b.input || a.verdict <> b.verdict
        || a.comparisons <> b.comparisons
        || not (Coverage.equal a.coverage b.coverage)
        || a.touched <> b.touched || a.eof_access <> b.eof_access
      then Alcotest.failf "streams diverge at input %S" a.input)
    runs_on runs_off

let test_cache_stats_sanity () =
  let subject = Catalog.find "expr" in
  let run incremental =
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 2000; incremental }
      subject
  in
  let on = run true in
  let c = on.Pfuzzer.cache in
  Alcotest.(check bool) "cache consulted" true (c.hits + c.misses > 0);
  Alcotest.(check bool) "mostly hits on the extension workload" true
    (c.hits > c.misses);
  Alcotest.(check bool) "hits save prefix characters" true (c.chars_saved > 0);
  Alcotest.(check bool) "consultations bounded by executions" true
    (c.hits + c.misses <= on.executions);
  let off = run false in
  Alcotest.(check bool) "cache inert when disabled" true
    (off.Pfuzzer.cache = Pfuzzer.no_cache_stats)

let test_path_counts_capped () =
  (* The path-novelty table is generationally reset at its cap, like the
     dedupe table; at default sizes a short run never trips it. *)
  let subject = Catalog.find "expr" in
  let normal =
    Pfuzzer.fuzz { Pfuzzer.default_config with max_executions = 1000 } subject
  in
  Alcotest.(check int) "no resets at default cap" 0 normal.path_resets;
  let tiny =
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 1000; queue_bound = 1 }
      subject
  in
  (* cap = 4 x queue_bound = 4: any workload with > 4 distinct paths
     forces at least one reset. *)
  Alcotest.(check bool) "tiny cap forces generational resets" true
    (tiny.path_resets > 0);
  Alcotest.(check bool) "fuzzer still works across resets" true
    (List.length tiny.valid_inputs > 0)

(* {1 Resilience: checkpoints, faults, crash corpus} *)

module Fault = Pdf_fault.Fault

let contains_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Run [name] to its budget, capturing the first periodic checkpoint the
   campaign emits. *)
let capture_checkpoint ?(execs = 900) ?(every = 300) name =
  let subject = Catalog.find name in
  let captured = ref None in
  let full =
    Pfuzzer.fuzz ~checkpoint_every:every
      ~on_checkpoint:(fun ck -> if !captured = None then captured := Some ck)
      { Pfuzzer.default_config with max_executions = execs }
      subject
  in
  match !captured with
  | None -> Alcotest.fail "no checkpoint was captured"
  | Some ck -> (full, ck, subject)

let test_checkpoint_roundtrip () =
  let _, ck, _ = capture_checkpoint "json" in
  match Pfuzzer.Checkpoint.(decode (encode ck)) with
  | Error e -> Alcotest.failf "encode/decode round-trip failed: %s" e
  | Ok ck' ->
    Alcotest.(check string) "subject name survives" "json"
      (Pfuzzer.Checkpoint.subject_name ck');
    Alcotest.(check int) "execution count survives"
      (Pfuzzer.Checkpoint.executions ck)
      (Pfuzzer.Checkpoint.executions ck');
    Alcotest.(check bool) "config survives" true
      (Pfuzzer.Checkpoint.config ck' = Pfuzzer.Checkpoint.config ck)

let expect_decode_error what s fragment =
  match Pfuzzer.Checkpoint.decode s with
  | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" what
  | Error e ->
    if not (contains_sub e fragment) then
      Alcotest.failf "%s: error %S does not mention %S" what e fragment

let test_checkpoint_rejects_damage () =
  let _, ck, _ = capture_checkpoint "paren" in
  let enc = Pfuzzer.Checkpoint.encode ck in
  expect_decode_error "truncated header" (String.sub enc 0 10) "too short";
  let bad_magic = "XXXXXX" ^ String.sub enc 6 (String.length enc - 6) in
  expect_decode_error "bad magic" bad_magic "bad magic";
  let bumped = Bytes.of_string enc in
  Bytes.set bumped 6 (Char.chr (Char.code enc.[6] + 1));
  expect_decode_error "version bump" (Bytes.to_string bumped) "version mismatch";
  let corrupted = Bytes.of_string enc in
  Bytes.set corrupted 40 (Char.chr (Char.code enc.[40] lxor 0xff));
  expect_decode_error "flipped payload byte" (Bytes.to_string corrupted)
    "digest mismatch";
  (* Truncating the payload (header intact) also trips the digest. *)
  expect_decode_error "truncated payload"
    (String.sub enc 0 (String.length enc - 5))
    "digest mismatch"

(* The decode error precedence is explicit: the payload digest is
   verified before the version byte is interpreted, so a file that is
   both corrupted and version-skewed reports corruption — rot is never
   misreported as skew — while a clean file from another build reports
   the genuine version mismatch. Both orders of damage are pinned. *)
let test_checkpoint_digest_before_version () =
  let _, ck, _ = capture_checkpoint "paren" in
  let enc = Pfuzzer.Checkpoint.encode ck in
  (* Skew alone: digest intact, version reported. *)
  let skewed = Bytes.of_string enc in
  Bytes.set skewed 6 (Char.chr (Char.code enc.[6] + 1));
  expect_decode_error "skew only" (Bytes.to_string skewed) "version mismatch";
  (* Corruption alone: digest reported. *)
  let rotted = Bytes.of_string enc in
  Bytes.set rotted 40 (Char.chr (Char.code enc.[40] lxor 0xff));
  expect_decode_error "rot only" (Bytes.to_string rotted) "digest mismatch";
  (* Corruption applied first, then skew: digest wins. *)
  let rot_then_skew = Bytes.of_string enc in
  Bytes.set rot_then_skew 40 (Char.chr (Char.code enc.[40] lxor 0xff));
  Bytes.set rot_then_skew 6 (Char.chr (Char.code enc.[6] + 1));
  expect_decode_error "rot then skew" (Bytes.to_string rot_then_skew)
    "digest mismatch";
  (* Skew applied first, then corruption: same verdict — the order the
     damage happened in cannot matter, only the precedence does. *)
  let skew_then_rot = Bytes.of_string enc in
  Bytes.set skew_then_rot 6 (Char.chr (Char.code enc.[6] + 1));
  Bytes.set skew_then_rot 40 (Char.chr (Char.code enc.[40] lxor 0xff));
  expect_decode_error "skew then rot" (Bytes.to_string skew_then_rot)
    "digest mismatch"

(* [fixtures/checkpoint-v<N>.bin] are paren checkpoints encoded by the
   last build of each older version: v3's [config] still carried
   [engine] and [batch], v4's still carried [dedupe]. Their digests are
   intact, so only the version byte stands between them and an
   unmarshal into the wrong record layout. *)
let test_checkpoint_v3_rejected () =
  List.iter
    (fun v ->
      let path = Printf.sprintf "fixtures/checkpoint-v%d.bin" v in
      let enc = In_channel.with_open_bin path In_channel.input_all in
      expect_decode_error (Printf.sprintf "v%d fixture" v) enc "version mismatch")
    [ 3; 4 ]

let test_checkpoint_file_roundtrip () =
  let _, ck, _ = capture_checkpoint "csv" in
  let path = Filename.temp_file "pfuzzer_ck" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Pfuzzer.Checkpoint.save path ck;
      match Pfuzzer.Checkpoint.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok ck' ->
        Alcotest.(check string) "subject survives the file system" "csv"
          (Pfuzzer.Checkpoint.subject_name ck');
        Alcotest.(check int) "executions survive the file system"
          (Pfuzzer.Checkpoint.executions ck)
          (Pfuzzer.Checkpoint.executions ck'));
  match Pfuzzer.Checkpoint.load "/nonexistent/pfuzzer.ckpt" with
  | Ok _ -> Alcotest.fail "loading a missing file succeeded"
  | Error _ -> ()

let test_resume_equivalence_all_subjects () =
  (* The headline resilience invariant: interrupt-then-resume is
     observationally identical to running uninterrupted, on every seed
     subject. [results_equal] ignores only wall-clock and cache
     accounting. *)
  List.iter
    (fun name ->
      let full, ck, subject = capture_checkpoint name in
      let resumed = Pfuzzer.resume_from ck subject in
      Alcotest.(check bool)
        (Printf.sprintf "resumed = uninterrupted on %s" name)
        true
        (Pdf_check.Invariants.results_equal full resumed))
    [ "paren"; "ini"; "csv"; "json"; "expr" ]

let test_resume_rejects_wrong_subject () =
  let _, ck, _ = capture_checkpoint "json" in
  match Pfuzzer.resume_from ck (Catalog.find "expr") with
  | (_ : Pfuzzer.result) ->
    Alcotest.fail "resuming a json checkpoint on expr succeeded"
  | exception Invalid_argument _ -> ()

let test_fault_plan_crash_corpus () =
  let subject = Catalog.find "json" in
  let indices = [ 50; 150; 250; 350; 450 ] in
  let plan =
    Fault.of_list (List.map (fun i -> (i, Fault.Raise "chaos raise")) indices)
  in
  let r =
    Pfuzzer.fuzz ~faults:plan
      { Pfuzzer.default_config with max_executions = 600 }
      subject
  in
  let fired = List.length (Fault.triggered plan) in
  Alcotest.(check int) "every planned fault fired" (List.length indices) fired;
  Alcotest.(check int) "every firing was a contained crash" fired r.crash_total;
  Alcotest.(check int) "campaign ran to its budget regardless" 600 r.executions;
  Alcotest.(check int) "raises are not hangs" 0 r.hangs;
  match r.crashes with
  | [ c ] ->
    Alcotest.(check string) "deduplicated under the injected exception"
      (Printexc.exn_slot_name (Fault.Injected "x"))
      c.exn;
    Alcotest.(check int) "dedup count totals the firings" fired c.count;
    Alcotest.(check bool) "first witness within the budget" true
      (c.first_at > 0 && c.first_at <= 600);
    Alcotest.(check bool) "detail records the injected message" true
      (contains_sub c.detail "chaos raise")
  | l -> Alcotest.failf "expected one crash identity, got %d" (List.length l)

let test_fault_plan_starvation_hangs () =
  let subject = Catalog.find "expr" in
  let plan = Fault.of_list [ (10, Fault.Starve_fuel); (20, Fault.Starve_fuel) ] in
  let r =
    Pfuzzer.fuzz ~faults:plan
      { Pfuzzer.default_config with max_executions = 200 }
      subject
  in
  Alcotest.(check int) "both starvations fired" 2
    (List.length (Fault.triggered plan));
  Alcotest.(check bool) "starvations surface as hangs" true (r.hangs >= 2);
  Alcotest.(check int) "no crashes" 0 r.crash_total;
  Alcotest.(check int) "campaign ran to its budget" 200 r.executions

(* {1 Run streams} *)

let stream_with config subject =
  let runs = ref [] in
  let result =
    Pfuzzer.fuzz ~on_execution:(fun run -> runs := run :: !runs) config subject
  in
  (result, List.rev !runs)

let check_streams_identical what (ra, runs_a) (rb, runs_b) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: aggregate results identical" what)
    true
    (Pdf_check.Invariants.results_equal ra rb);
  Alcotest.(check int)
    (Printf.sprintf "%s: same stream length" what)
    (List.length runs_a) (List.length runs_b);
  List.iter2
    (fun a b ->
      if not (Pdf_check.Invariants.runs_equal a b) then
        Alcotest.failf "%s: streams diverge at input %S" what
          a.Pdf_instr.Runner.input)
    runs_a runs_b

let test_checkpoint_every_7 () =
  (* An interval that candidates straddle (each runs one or two
     executions) still round-trips: checkpoints land on the first loop
     top at or past the interval, and resuming one reproduces the
     uninterrupted campaign exactly. *)
  let subject = Catalog.find "csv" in
  let config = { Pfuzzer.default_config with max_executions = 900 } in
  let captured = ref [] in
  let full =
    Pfuzzer.fuzz ~checkpoint_every:7
      ~on_checkpoint:(fun ck -> captured := ck :: !captured)
      config subject
  in
  match List.rev !captured with
  | [] -> Alcotest.fail "no checkpoint captured with every=7"
  | first :: _ as cks ->
    (* The loop top before a checkpoint was still short of the interval,
       and one candidate adds at most two executions: every checkpoint
       lands 7 or 8 executions after the previous one — never early, and
       within one candidate late. *)
    ignore
      (List.fold_left
         (fun last ck ->
           let at = Pfuzzer.Checkpoint.executions ck in
           if at - last < 7 || at - last > 7 + 1 then
             Alcotest.failf "checkpoint at %d, %d executions after the previous one"
               at (at - last);
           at)
         0 cks);
    let resumed = Pfuzzer.resume_from first subject in
    Alcotest.(check bool) "resumed = uninterrupted" true
      (Pdf_check.Invariants.results_equal full resumed)

(* {1 Generational resets preserve determinism}

   [seen_inputs] and [path_counts] reset wholesale at 4 x queue_bound.
   With both tables rekeyed by FNV hash the reset path is load-bearing:
   a tiny queue bound forces many generations per campaign, and the
   search must stay deterministic through every one — same seed, same
   stream, and a checkpoint taken after resets have fired must restore
   the mid-generation table contents exactly. (A tiny-cap campaign is
   *not* compared against a default-cap one: resets re-admit previously
   seen candidates by design, so the cap is behaviour, not tuning.) *)

let test_generational_reset_determinism () =
  let subject = Catalog.find "expr" in
  let config =
    { Pfuzzer.default_config with max_executions = 3000; queue_bound = 8 }
  in
  let ((ra, _) as a) = stream_with config subject in
  Alcotest.(check bool) "dedupe resets fired" true (ra.Pfuzzer.dedupe_resets > 0);
  Alcotest.(check bool) "path resets fired" true (ra.path_resets > 0);
  check_streams_identical "tiny-cap campaign, run twice" a
    (stream_with config subject);
  (* Round-trip a checkpoint captured after the tables have already been
     through at least one reset: the restored generation must contain
     exactly the entries live at capture time, or the resumed half of the
     campaign diverges. *)
  let captured = ref None in
  let full =
    Pfuzzer.fuzz ~checkpoint_every:500
      ~on_checkpoint:(fun ck ->
        let partial = Pfuzzer.Checkpoint.partial_result ck in
        if !captured = None && partial.Pfuzzer.dedupe_resets > 0 then
          captured := Some ck)
      config subject
  in
  match !captured with
  | None -> Alcotest.fail "no checkpoint captured after a dedupe reset"
  | Some ck ->
    let resumed = Pfuzzer.resume_from ck subject in
    Alcotest.(check bool) "resume across a reset generation = uninterrupted"
      true
      (Pdf_check.Invariants.results_equal full resumed)

(* Progress results are built from loop state instead of a checkpoint,
   so they must equal, to the byte, the partial result of the
   checkpoint taken at the same instant. Both hooks fire back to back,
   checkpoint first; each value is marshalled the moment it arrives. *)
let test_progress_equals_checkpoint () =
  let subject = Catalog.find "json" in
  let config = { Pfuzzer.default_config with max_executions = 6000 } in
  let from_checkpoints = ref [] and from_progress = ref [] in
  ignore
    (Pfuzzer.fuzz ~checkpoint_every:500
       ~on_checkpoint:(fun ck ->
         from_checkpoints :=
           Marshal.to_string (Pfuzzer.Checkpoint.partial_result ck) []
           :: !from_checkpoints)
       ~on_progress:(fun r ->
         from_progress := Marshal.to_string r [] :: !from_progress)
       config subject);
  Alcotest.(check int) "one progress result per checkpoint"
    (List.length !from_checkpoints) (List.length !from_progress);
  Alcotest.(check bool) "frames taken" true (List.length !from_progress >= 10);
  List.iteri
    (fun i (a, b) ->
      if not (String.equal a b) then
        Alcotest.failf "progress result %d differs from the checkpoint's" i)
    (List.combine (List.rev !from_checkpoints) (List.rev !from_progress))

let test_crash_mid_loop () =
  (* Faults that fire on consecutive executions in the middle of the
     main loop are contained like any other crash: the loop keeps
     draining candidates and the budget is honoured. *)
  let subject = Catalog.find "json" in
  let indices = [ 18; 19; 20 ] in
  let plan =
    Fault.of_list (List.map (fun i -> (i, Fault.Raise "mid-loop chaos")) indices)
  in
  let r =
    Pfuzzer.fuzz ~faults:plan
      { Pfuzzer.default_config with max_executions = 200 }
      subject
  in
  Alcotest.(check int) "every mid-loop fault fired" (List.length indices)
    (List.length (Fault.triggered plan));
  Alcotest.(check int) "each firing was contained" (List.length indices)
    r.crash_total;
  Alcotest.(check int) "budget honoured through mid-loop crashes" 200
    r.executions

let prop_heuristic_monotone_in_coverage =
  QCheck.Test.make ~name:"heuristic is monotone in new coverage" ~count:100
    QCheck.(pair (int_range 0 20) (int_range 0 20))
    (fun (a, b) ->
      let mk n = candidate ~cov:(List.init n (fun i -> i)) () in
      a <= b
      || score (mk a) >= score (mk b)
      || score (mk a) <= score (mk b) = (a <= b))

let prop_all_variants_total =
  QCheck.Test.make ~name:"every variant scores every candidate" ~count:100
    QCheck.(pair small_string (int_range 0 10))
    (fun (data, parents) ->
      let c = candidate ~data ~parents () in
      List.for_all
        (fun (_, v) ->
          let s = Heuristic.score v ~vbr:Coverage.empty c in
          Float.is_finite s)
        Heuristic.all)

let () =
  Alcotest.run "pdf_core"
    [
      ( "heuristic",
        [
          Alcotest.test_case "term directions" `Quick test_heuristic_terms;
          Alcotest.test_case "vbr baseline" `Quick test_heuristic_vbr;
          Alcotest.test_case "parents sign discrepancy" `Quick test_heuristic_parents_sign;
          Alcotest.test_case "variants" `Quick test_heuristic_variants;
          Alcotest.test_case "candidate seed" `Quick test_candidate_seed;
          qtest prop_heuristic_monotone_in_coverage;
          qtest prop_all_variants_total;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "finds expr inputs" `Quick test_finds_expr_inputs;
          Alcotest.test_case "valid inputs cover new code" `Quick
            test_valid_inputs_cover_new_code;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "finds json keywords" `Slow test_finds_json_keywords;
          Alcotest.test_case "closes parentheses" `Quick test_finds_paren_nesting;
          Alcotest.test_case "first_valid_at" `Quick test_first_valid_at;
          Alcotest.test_case "queue statistics" `Quick test_queue_stats;
          Alcotest.test_case "small queue bound" `Quick test_small_queue_bound;
          Alcotest.test_case "max input length" `Quick test_max_input_len;
          Alcotest.test_case "works on table-driven subjects" `Quick
            test_fuzzer_on_table_subject;
          Alcotest.test_case "initial corpus seeds the queue" `Quick
            test_initial_inputs_seed_queue;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "on/off streams identical" `Quick
            test_incremental_equivalence;
          Alcotest.test_case "cache stats sanity" `Quick test_cache_stats_sanity;
          Alcotest.test_case "path counts capped" `Quick test_path_counts_capped;
          Alcotest.test_case "generational resets stay deterministic" `Quick
            test_generational_reset_determinism;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "checkpoint encode/decode round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint rejects damage" `Quick
            test_checkpoint_rejects_damage;
          Alcotest.test_case "digest mismatch outranks version skew" `Quick
            test_checkpoint_digest_before_version;
          Alcotest.test_case "v3 checkpoint is a version mismatch" `Quick
            test_checkpoint_v3_rejected;
          Alcotest.test_case "checkpoint every 7 resumes exactly" `Quick
            test_checkpoint_every_7;
          Alcotest.test_case "crashes mid-loop are contained" `Quick
            test_crash_mid_loop;
          Alcotest.test_case "progress results equal checkpoint partials" `Quick
            test_progress_equals_checkpoint;
          Alcotest.test_case "checkpoint file round-trip" `Quick
            test_checkpoint_file_roundtrip;
          Alcotest.test_case "resume equivalence on every subject" `Slow
            test_resume_equivalence_all_subjects;
          Alcotest.test_case "resume rejects wrong subject" `Quick
            test_resume_rejects_wrong_subject;
          Alcotest.test_case "fault plan builds a crash corpus" `Quick
            test_fault_plan_crash_corpus;
          Alcotest.test_case "starvation faults surface as hangs" `Quick
            test_fault_plan_starvation_hangs;
        ] );
    ]
