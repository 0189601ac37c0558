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
   [engine] and [batch], v4's still carried [dedupe], v5's still carried
   [incremental]. Their digests are intact, so only the version byte
   stands between them and an unmarshal into the wrong record layout. *)
let test_checkpoint_v3_rejected () =
  List.iter
    (fun v ->
      let path = Printf.sprintf "fixtures/checkpoint-v%d.bin" v in
      let enc = In_channel.with_open_bin path In_channel.input_all in
      expect_decode_error (Printf.sprintf "v%d fixture" v) enc "version mismatch")
    [ 3; 4; 5 ]

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
     accounting, which reads zero on both. *)
  List.iter
    (fun name ->
      let full, ck, subject = capture_checkpoint name in
      let resumed = Pfuzzer.resume_from ck subject in
      Alcotest.(check bool)
        (Printf.sprintf "resumed = uninterrupted on %s" name)
        true
        (Pdf_check.Invariants.results_equal full resumed))
    [ "paren"; "ini"; "csv"; "json"; "expr"; "tinyc"; "mjs" ]

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
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 600 }
      (Fault.subject plan subject)
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
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 200 }
      (Fault.subject plan subject)
  in
  Alcotest.(check int) "both starvations fired" 2
    (List.length (Fault.triggered plan));
  Alcotest.(check bool) "starvations surface as hangs" true (r.hangs >= 2);
  Alcotest.(check int) "no crashes" 0 r.crash_total;
  Alcotest.(check int) "campaign ran to its budget" 200 r.executions

(* With no fault planned, the wrapped subject is the bare one. *)
let test_empty_fault_plan_is_bare () =
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let config = { Pfuzzer.default_config with max_executions = 2000 } in
      let wrapped = Fault.subject (Fault.of_list []) subject in
      Alcotest.(check bool)
        (name ^ ": empty plan = bare subject")
        true
        (Pdf_check.Invariants.results_equal
           (Pfuzzer.fuzz config subject)
           (Pfuzzer.fuzz config wrapped)))
    [ "json"; "tinyc" ]

(* The wrapper replaces the parse and nothing else, and the parse it
   puts in faults the planned calls only: the others observe exactly
   what the bare subject does. *)
let test_fault_wrapper_replaces_parse_only () =
  List.iter
    (fun (s : Subject.t) ->
      let plan = Fault.of_list [ (1, Fault.Raise "planned"); (3, Fault.Starve_fuel) ] in
      let w = Fault.subject plan s in
      Alcotest.(check bool)
        (s.name ^ ": other fields shared")
        true
        (w.name == s.name && w.description == s.description && w.registry == s.registry
       && w.fuel = s.fuel && w.tokens == s.tokens && w.tokenize == s.tokenize
       && w.original_loc = s.original_loc);
      List.iteri
        (fun i input ->
          let what = Printf.sprintf "%s call %d" s.name i in
          let got = Subject.run w input in
          match (i, got.verdict) with
          | 1, Pdf_instr.Runner.Crash c ->
            Alcotest.(check string) (what ^ " raises the injected exception")
              (Printexc.exn_slot_name (Fault.Injected "planned"))
              c.exn
          | 3, Pdf_instr.Runner.Hang -> ()
          | (1 | 3), v -> Alcotest.failf "%s: unplanned verdict %a" what Pdf_instr.Runner.pp_verdict v
          | _ ->
            let want = Subject.run s input in
            Alcotest.(check bool) (what ^ " parses as the bare subject") true
              (got.verdict = want.verdict
              && got.comparisons = want.comparisons
              && got.touched = want.touched
              && Coverage.equal got.coverage want.coverage
              && got.eof_access = want.eof_access
              && got.max_depth = want.max_depth))
        [ ""; "1"; "("; "[]"; "x=1"; "a,b" ];
      Alcotest.(check (list int)) (s.name ^ ": fired") [ 1; 3 ]
        (List.map fst (Fault.triggered plan)))
    Catalog.all

(* The wrapper's call count is the campaign's execution index: a fault
   at index 0 hits the very first execution. *)
let test_fault_at_first_execution () =
  let plan = Fault.of_list [ (0, Fault.Raise "first") ] in
  let r =
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 100 }
      (Fault.subject plan (Catalog.find "json"))
  in
  Alcotest.(check (list int)) "fired at index 0" [ 0 ]
    (List.map fst (Fault.triggered plan));
  match r.crashes with
  | [ c ] -> Alcotest.(check int) "first execution crashed" 1 c.first_at
  | l -> Alcotest.failf "expected one crash identity, got %d" (List.length l)

(* {1 Run streams} *)

let stream_with config subject =
  let runs = ref [] in
  let result =
    Pfuzzer.fuzz ~on_execution:(fun run -> runs := run :: !runs) config subject
  in
  (result, List.rev !runs)

(* Full observational equality of two executions: timing is the only
   field left out. *)
let runs_equal (a : Pdf_instr.Runner.run) (b : Pdf_instr.Runner.run) =
  a.input = b.input && a.verdict = b.verdict
  && a.comparisons = b.comparisons
  && Coverage.equal a.coverage b.coverage
  && a.trace = b.trace && a.touched = b.touched
  && a.eof_access = b.eof_access && a.max_depth = b.max_depth
  && a.frames = b.frames

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
      if not (runs_equal a b) then
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
    Pfuzzer.fuzz
      { Pfuzzer.default_config with max_executions = 200 }
      (Fault.subject plan subject)
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

(* {1 Candidate queue}

   The column store against a from-scratch model: a list of candidates
   in insertion order whose priorities are [Heuristic.score ~vbr],
   recomputed on every observation. Pushes come in sibling groups that
   share one parent input, cut, [parents], [avg_stack], [path_count]
   and parent coverage, with one replacement per member, so a member's
   input is [input[0..cut) ^ repl]. A group's replacements mostly repeat
   one length around a keyword-length one, so its members form runs,
   and pops and truncations may come between its pushes: a pop often
   takes the front of the group's own run, and the pushes after it then
   extend that run (equal priority) or start one above it (a keyword).
   The bound is small, so truncations cut through runs. Re-rank deltas
   are disjoint from the model's vBr, as the fuzzer's are.

   The model keys each member by its run: a push continues the run of
   the push before it if both are in one group, with one replacement
   length, and no truncation dropped members between them. After every
   step the queue's snapshot (inputs included) must equal the model's,
   its heap must hold exactly one entry per run that still has a
   member, its columns must stay within the bounds its interface
   states, and no closed group may outlive its members. Every popped
   input is the model's, so it too is [input[0..cut) ^ repl]. *)

module Cq = Pdf_core.Candidate_queue

type member_step =
  | Member of string  (** push this replacement *)
  | Pop_inside of bool  (** with its priority? *)
  | Cut  (** truncate *)

type siblings = {
  s_input : string;
  s_cut : int;
  s_parents : int;
  s_avg_stack : float;
  s_path_count : int;
  s_coverage : int list;
  s_steps : member_step list;
}

type cq_op =
  | Group of siblings
  | Pop of bool  (** with its priority? *)
  | Rerank of int list
  | Truncate
  | Round_trip  (** snapshot, then restore into a fresh queue *)

module Cq_model = struct
  type entry = { seq : int; run : int; cand : Candidate.t }

  type t = {
    variant : Heuristic.variant;
    bound : int;
    mutable vbr : Coverage.t;
    mutable entries : entry list;  (* insertion order *)
    mutable next_seq : int;
    mutable runs : int;  (* runs started *)
    mutable last : int option;
        (* the replacement length of the last push, until its group
           closes or a truncation drops members *)
  }

  let create variant bound =
    {
      variant;
      bound;
      vbr = Coverage.empty;
      entries = [];
      next_seq = 0;
      runs = 0;
      last = None;
    }

  let prio m e = Heuristic.score m.variant ~vbr:m.vbr e.cand

  let order m a b =
    let pa = prio m a and pb = prio m b in
    if pa > pb then -1 else if pa < pb then 1 else compare a.seq b.seq

  let push m cand =
    let len = String.length cand.Candidate.repl in
    if m.last <> Some len then m.runs <- m.runs + 1;
    m.last <- Some len;
    m.entries <- m.entries @ [ { seq = m.next_seq; run = m.runs; cand } ];
    m.next_seq <- m.next_seq + 1

  let pop m =
    match List.sort (order m) m.entries with
    | [] -> None
    | e :: _ ->
      let p = prio m e in
      m.entries <- List.filter (fun e' -> e'.seq <> e.seq) m.entries;
      Some (p, e.cand)

  let truncate m =
    if List.length m.entries > m.bound then m.last <- None;
    m.entries <-
      List.sort (fun a b -> compare a.seq b.seq)
        (List.filteri (fun i _ -> i < m.bound) (List.sort (order m) m.entries))

  (* A restored entry is a group, and so a run, of its own. *)
  let restore m =
    m.last <- None;
    m.entries <-
      List.map
        (fun e ->
          m.runs <- m.runs + 1;
          { e with run = m.runs })
        m.entries

  let snapshot m = List.map (fun e -> (prio m e, e.cand)) m.entries

  let live_runs m =
    List.length (List.sort_uniq compare (List.map (fun e -> e.run) m.entries))
end

(* Outcomes span three bitset words. *)
let outcomes_gen = QCheck.Gen.(list_size (int_range 0 12) (int_range 0 140))

(* Runs of one length around a keyword, or lengths at random. *)
let repls_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          let* len = int_range 0 2 in
          let one = string_size ~gen:(char_range 'a' 'c') (return len) in
          let* before = list_size (int_range 0 5) one in
          let* keyword = opt (oneofl [ "true"; "null"; "while"; "let" ]) in
          let+ after = list_size (int_range 0 5) one in
          before @ Option.to_list keyword @ after );
        (1, list_size (int_range 1 5) (string_size ~gen:(char_range 'a' 'c') (int_range 0 2)));
      ])

let siblings_gen =
  QCheck.Gen.(
    let* s_input = string_size ~gen:(char_range 'a' 'c') (int_range 0 6) in
    let* s_cut = int_range 0 (String.length s_input) in
    let* s_parents, s_avg_stack, s_path_count =
      triple (int_range 0 4) (oneofl [ 0.0; 0.5; 1.5; 3.25 ]) (int_range 0 3)
    in
    let* s_coverage = outcomes_gen in
    let* repls = repls_gen in
    let+ steps =
      flatten_l
        (List.map
           (fun repl ->
             let+ before =
               frequency
                 [
                   (6, return []);
                   (2, map (fun p -> [ Pop_inside p ]) bool);
                   (1, return [ Cut ]);
                 ]
             in
             before @ [ Member repl ])
           repls)
    in
    let s_steps = List.concat steps in
    { s_input; s_cut; s_parents; s_avg_stack; s_path_count; s_coverage; s_steps })

let cq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun s -> Group s) siblings_gen);
        (3, map (fun p -> Pop p) bool);
        (2, map (fun d -> Rerank d) outcomes_gen);
        (1, return Truncate);
        (1, return Round_trip);
      ])

let print_step = function
  | Member r -> Printf.sprintf "%S" r
  | Pop_inside p -> if p then "pop_with_priority" else "pop"
  | Cut -> "truncate"

let print_cq_op = function
  | Group s ->
    Printf.sprintf "group %S cut %d p%d a%g n%d [%s] {%s}" s.s_input s.s_cut
      s.s_parents s.s_avg_stack s.s_path_count
      (String.concat "," (List.map string_of_int s.s_coverage))
      (String.concat "; " (List.map print_step s.s_steps))
  | Pop p -> if p then "pop_with_priority" else "pop"
  | Rerank d ->
    Printf.sprintf "rerank [%s]" (String.concat "," (List.map string_of_int d))
  | Truncate -> "truncate"
  | Round_trip -> "round-trip"

let cq_case =
  QCheck.make
    ~print:(fun (v, bound, ops) ->
      Printf.sprintf "%s, bound %d: %s"
        (fst (List.nth Heuristic.all v))
        bound
        (String.concat "; " (List.map print_cq_op ops)))
    QCheck.Gen.(
      triple
        (int_range 0 (List.length Heuristic.all - 1))
        (int_range (-2) 6)
        (list_size (int_range 0 60) cq_op_gen))

(* [open_groups] groups may be open, and count as live with no member. *)
let cq_check ?(open_groups = 0) (m : Cq_model.t) q =
  if Cq.length q <> List.length m.entries then
    QCheck.Test.fail_reportf "length %d, model %d" (Cq.length q) (List.length m.entries);
  if Cq.snapshot q <> Cq_model.snapshot m then QCheck.Test.fail_report "snapshot differs";
  if Cq.runs q <> Cq_model.live_runs m then
    QCheck.Test.fail_reportf "%d heap entries for %d runs" (Cq.runs q) (Cq_model.live_runs m);
  let cap = (2 * max 0 m.bound) + 2 in
  if Cq.run_capacity q > cap || Cq.group_capacity q > cap then
    QCheck.Test.fail_reportf "capacity %d runs, %d groups over %d" (Cq.run_capacity q)
      (Cq.group_capacity q) cap;
  if Cq.column_capacity q > 2 * cap then
    QCheck.Test.fail_reportf "column capacity %d over %d" (Cq.column_capacity q) (2 * cap);
  if Cq.live_groups q > Cq.length q + open_groups then
    QCheck.Test.fail_reportf "%d live groups for %d entries" (Cq.live_groups q)
      (Cq.length q)

let cq_pop (m : Cq_model.t) q with_priority =
  let want = Cq_model.pop m in
  if with_priority then begin
    if Cq.pop_with_priority q <> want then QCheck.Test.fail_report "pop differs"
  end
  else if Cq.pop q <> Option.map snd want then QCheck.Test.fail_report "pop differs"

let cq_truncate (m : Cq_model.t) q =
  Cq.truncate q;
  Cq_model.truncate m

let cq_step (m : Cq_model.t) q = function
  | Group s ->
    let parent_coverage = Coverage.of_list s.s_coverage in
    let g =
      Cq.open_group !q ~input:s.s_input ~cut:s.s_cut ~parents:s.s_parents
        ~avg_stack:s.s_avg_stack ~path_count:s.s_path_count ~parent_coverage
        ~vbr:m.vbr
    in
    List.iter
      (fun step ->
        (match step with
         | Member repl ->
           let cand =
             {
               Candidate.data = String.sub s.s_input 0 s.s_cut ^ repl;
               repl;
               parents = s.s_parents;
               parent_coverage;
               avg_stack = s.s_avg_stack;
               path_count = s.s_path_count;
             }
           in
           if Cq.member_data !q g ~repl <> cand.data then
             QCheck.Test.fail_report "member data differs from input[0..cut) ^ repl";
           if Cq.score !q g ~repl <> Heuristic.score m.variant ~vbr:m.vbr cand then
             QCheck.Test.fail_report "score differs from Heuristic.score";
           Cq.push !q g ~repl;
           Cq_model.push m cand;
           (* The fuzzer's hysteresis: truncate once past twice the bound. *)
           let over = List.length m.entries > 2 * m.bound in
           if Cq.full !q <> over then QCheck.Test.fail_report "full disagrees";
           if over then cq_truncate m !q
         | Pop_inside with_priority -> cq_pop m !q with_priority
         | Cut -> cq_truncate m !q);
        cq_check ~open_groups:1 m !q)
      s.s_steps;
    Cq.close_group !q g;
    m.last <- None
  | Pop with_priority -> cq_pop m !q with_priority
  | Rerank d ->
    let delta = Coverage.diff (Coverage.of_list d) m.vbr in
    m.vbr <- Coverage.union m.vbr delta;
    Cq.rerank !q ~delta
  | Truncate -> cq_truncate m !q
  | Round_trip ->
    let fresh = Cq.create m.variant ~bound:m.bound in
    Cq.restore fresh ~vbr:m.vbr (Cq.snapshot !q);
    Cq_model.restore m;
    q := fresh

let prop_candidate_queue_model =
  QCheck.Test.make ~name:"candidate queue agrees with a rescoring model" ~count:500
    cq_case (fun (v, bound, ops) ->
      let variant = snd (List.nth Heuristic.all v) in
      let m = Cq_model.create variant bound in
      let q = ref (Cq.create variant ~bound) in
      List.iter
        (fun op ->
          cq_step m q op;
          cq_check m !q)
        ops;
      (* Drain: every remaining entry pops in the model's order, and the
         last pop frees the last group. *)
      while m.entries <> [] do
        cq_step m q (Pop true)
      done;
      cq_check m !q;
      Cq.live_groups !q = 0)

(* {1 Pop order, end to end}

   The candidates a campaign pops, with their priorities, pinned by
   digest on three subjects. A bound of 300 truncates the queue every
   few executions, so these digests move with any change to how the
   queue orders, re-ranks, truncates or restores its entries. The
   resumed stream runs from a checkpoint (encoded and decoded) taken
   halfway; it must also be the tail of the uninterrupted stream. *)

let popped_config =
  { Pfuzzer.default_config with seed = 3; max_executions = 4000; queue_bound = 300 }

(* Pops as [%h] priority and [%S] input, one a line, and their count. *)
let popped_recorder () =
  let lines = ref [] in
  let on_queue_event = function
    | Pfuzzer.Popped (prio, data) -> lines := Printf.sprintf "%h %S\n" prio data :: !lines
    | Pushed _ | Reranked _ | Truncated _ -> ()
  in
  (on_queue_event, lines)

let popped_digest lines =
  (List.length lines, Digest.to_hex (Digest.string (String.concat "" (List.rev lines))))

let golden_pops =
  [
    ("json", (2006, "f2d02420a0a7f02c5708c5798fcac704"));
    ("tinyc", (2001, "99200f046b63597b017bd8712c320549"));
    ("mjs", (2000, "87d4f1489c7416602383d7f9288eff23"));
  ]

let golden_resumed_pops = ("json", (999, "6fb05aaad427eb2b6d6d66e9350c0acd"))

let test_pop_order_golden () =
  List.iter
    (fun (name, want) ->
      let on_queue_event, lines = popped_recorder () in
      ignore (Pfuzzer.fuzz ~on_queue_event popped_config (Catalog.find name));
      Alcotest.(check (pair int string))
        (Printf.sprintf "%s: pops and their digest" name)
        want (popped_digest !lines))
    golden_pops

let test_resumed_pop_order_golden () =
  let name, want = golden_resumed_pops in
  let subject = Catalog.find name in
  let on_queue_event, lines = popped_recorder () in
  let captured = ref None in
  ignore
    (Pfuzzer.fuzz ~on_queue_event ~checkpoint_every:500
       ~on_checkpoint:(fun ck ->
         if !captured = None && Pfuzzer.Checkpoint.executions ck >= 2000 then
           captured := Some (ck, List.length !lines))
       popped_config subject);
  match !captured with
  | None -> Alcotest.fail "no checkpoint captured halfway"
  | Some (ck, popped_before) ->
    let ck =
      match Pfuzzer.Checkpoint.(decode (encode ck)) with
      | Ok ck -> ck
      | Error e -> Alcotest.failf "checkpoint round trip: %s" e
    in
    let on_queue_event, resumed = popped_recorder () in
    ignore (Pfuzzer.resume_from ~on_queue_event ck subject);
    let tail = List.filteri (fun i _ -> i < List.length !lines - popped_before) !lines in
    Alcotest.(check (pair int string))
      "resumed pops are the uninterrupted tail" (popped_digest tail)
      (popped_digest !resumed);
    Alcotest.(check (pair int string))
      (Printf.sprintf "%s resumed: pops and their digest" name)
      want (popped_digest !resumed)

(* {1 Dedupe set}

   The prefix nodes against a string-set model. Entries arrive in
   parts, [input[0..index) ^ repl] with [input[0..index)] the open
   prefix, over a small alphabet so that the same string often arrives
   split in different places: as a one-byte replacement that sets a bit
   in the open node's row, as a longer one that probes a node of its
   own, or whole. A fifth of the characters are bytes 0, 128 and 255,
   the first and last bits of a row and the first byte past ASCII. A
   sibling group opens one prefix and proposes several children, as the
   fuzzer does, with resets in the middle. A bulk add forces several
   doublings of the table, the nodes and the arena; a long add stores
   a prefix of more than 65,535 bytes. Every case ends with a
   fold-and-rebuild round trip, as a checkpoint does. *)

module Dedupe = Pdf_core.Dedupe

type dd_child = Child of string | Cut  (** a reset mid-group *)

type dd_op =
  | Mem of string * int * string
  | Add of string * int * string  (** after a [mem], as the fuzzer does *)
  | Siblings of string * int * dd_child list
  | Bulk of char * int  (** that many distinct entries *)
  | Long of int  (** an entry of [65_536 + n] bytes, cut at [n] *)
  | Reset

(* Failure reports stay readable when the entry is 65k long. *)
let dd_show s =
  if String.length s <= 24 then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 24) (String.length s)

(* Propose [p ^ repl] under the open prefix [p = input[0..index)]: the
   set must answer as the model does, and a fresh string is added. A
   member added again must leave the count alone. *)
let dd_child t model input index repl =
  let whole = String.sub input 0 index ^ repl in
  let present = Dedupe.mem t repl in
  if present <> Hashtbl.mem model whole then
    QCheck.Test.fail_reportf "mem %s says %b" (dd_show whole) present;
  let before = Dedupe.count t in
  Dedupe.add t repl;
  if not present then Hashtbl.replace model whole ();
  if present && Dedupe.count t <> before then
    QCheck.Test.fail_reportf "re-adding %s changed the count" (dd_show whole)

let dd_add t model input index repl =
  Dedupe.open_prefix t input index;
  dd_child t model input index repl

let dd_char_gen =
  QCheck.Gen.(
    frequency [ (4, char_range 'a' 'c'); (1, oneofl [ '\000'; '\128'; '\255' ]) ])

let dd_string_gen lo hi = QCheck.Gen.(string_size ~gen:dd_char_gen (int_range lo hi))

let dd_prefix_gen =
  QCheck.Gen.(
    let* input = dd_string_gen 0 8 in
    let+ index = int_range 0 (String.length input) in
    (input, index))

let dd_parts_gen =
  QCheck.Gen.(
    let* input, index = dd_prefix_gen in
    let+ repl = dd_string_gen 0 3 in
    (input, index, repl))

let dd_children_gen =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           (8, map (fun c -> Child (String.make 1 c)) dd_char_gen);
           (2, map (fun r -> Child r) (dd_string_gen 0 3));
           (1, return Cut);
         ]))

let dd_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun (i, k, r) -> Mem (i, k, r)) dd_parts_gen);
        (6, map (fun (i, k, r) -> Add (i, k, r)) dd_parts_gen);
        (4, map2 (fun (i, k) cs -> Siblings (i, k, cs)) dd_prefix_gen dd_children_gen);
        (1, map2 (fun c n -> Bulk (c, n)) (char_range 'd' 'z') (int_range 100 3000));
        (1, map (fun n -> Long n) (int_range 0 3));
        (1, return Reset);
      ])

let print_dd_op = function
  | Mem (i, k, r) -> Printf.sprintf "mem %S %d %S" i k r
  | Add (i, k, r) -> Printf.sprintf "add %S %d %S" i k r
  | Siblings (i, k, cs) ->
    Printf.sprintf "siblings %S %d [%s]" i k
      (String.concat " "
         (List.map (function Child r -> Printf.sprintf "%S" r | Cut -> "reset") cs))
  | Bulk (c, n) -> Printf.sprintf "bulk %C x%d" c n
  | Long n -> Printf.sprintf "long %d" (65_536 + n)
  | Reset -> "reset"

let dd_step t model = function
  | Mem (input, index, repl) ->
    let whole = String.sub input 0 index ^ repl in
    Dedupe.open_prefix t input index;
    if Dedupe.mem t repl <> Hashtbl.mem model whole then
      QCheck.Test.fail_reportf "mem %s disagrees" (dd_show whole)
  | Add (input, index, repl) -> dd_add t model input index repl
  | Siblings (input, index, children) ->
    Dedupe.open_prefix t input index;
    List.iter
      (function
        | Child repl -> dd_child t model input index repl
        | Cut ->
          Dedupe.reset t;
          Hashtbl.reset model)
      children
  | Bulk (c, n) ->
    for i = 0 to n - 1 do
      let input = Printf.sprintf "%c%d" c i in
      dd_add t model input (i mod (String.length input + 1)) "-"
    done
  | Long n ->
    let input = String.init (65_536 + n) (fun i -> Char.chr (97 + (i mod 3))) in
    dd_add t model input n (String.sub input n (String.length input - n))
  | Reset ->
    Dedupe.reset t;
    Hashtbl.reset model

let dd_entries model =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model [])

let prop_dedupe_model =
  QCheck.Test.make ~name:"dedupe set agrees with a string-set model" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_dd_op ops))
       QCheck.Gen.(list_size (int_range 0 40) dd_op_gen))
    (fun ops ->
      let t = Dedupe.create () and model = Hashtbl.create 64 in
      (* A 0-byte entry, arriving in its only split. *)
      dd_add t model "" 0 "";
      List.iter
        (fun op ->
          dd_step t model op;
          if Dedupe.count t <> Hashtbl.length model then
            QCheck.Test.fail_reportf "count %d, model %d" (Dedupe.count t)
              (Hashtbl.length model))
        ops;
      let entries = dd_entries model in
      let folded = List.sort compare (Dedupe.fold List.cons t []) in
      if folded <> entries then QCheck.Test.fail_report "fold differs from the model";
      List.iter
        (fun s ->
          Dedupe.open_prefix t s (String.length s);
          if not (Dedupe.mem t "") then QCheck.Test.fail_reportf "%s lost" (dd_show s))
        entries;
      (* The round trip a checkpoint makes: fold, then add each string
         whole to a fresh set. The rebuilt set must answer for the same
         strings arriving in parts. *)
      let rebuilt = Dedupe.create () in
      Dedupe.open_prefix rebuilt "" 0;
      List.iter (Dedupe.add rebuilt) folded;
      Dedupe.count rebuilt = List.length entries
      && List.sort compare (Dedupe.fold List.cons rebuilt []) = entries
      && List.for_all
           (fun s ->
             let k = String.length s / 2 in
             Dedupe.open_prefix rebuilt s k;
             Dedupe.mem rebuilt (String.sub s k (String.length s - k)))
           entries)

(* The cases the node format introduces, one by one. *)
let test_dedupe_nodes () =
  let t = Dedupe.create () in
  let mem input index repl =
    Dedupe.open_prefix t input index;
    Dedupe.mem t repl
  and add input index repl =
    Dedupe.open_prefix t input index;
    Dedupe.add t repl
  in
  let check what expected input index repl =
    Alcotest.(check bool) what expected (mem input index repl)
  in
  (* The empty string is a flag, not a node. *)
  check "empty absent" false "" 0 "";
  add "xyz" 0 "";
  check "empty added" true "" 0 "";
  Alcotest.(check int) "empty counts" 1 (Dedupe.count t);
  Alcotest.(check (list string)) "empty folds" [ "" ] (Dedupe.fold List.cons t []);
  (* Two strings that share all but their last byte share a node. *)
  add "abq" 2 "c";
  add "ab" 2 "d";
  check "sibling c" true "abc" 3 "";
  check "sibling d" true "" 0 "abd";
  check "their prefix is no member" false "ab" 2 "";
  check "nor another sibling" false "ab" 2 "e";
  Alcotest.(check int) "siblings count" 3 (Dedupe.count t);
  (* Last bytes at both ends of a row and past ASCII. *)
  List.iter (fun c -> add "ab" 2 (String.make 1 c)) [ '\000'; '\127'; '\128'; '\255' ];
  List.iter
    (fun c -> check (Printf.sprintf "last byte %d" (Char.code c)) true "" 0 ("ab" ^ String.make 1 c))
    [ '\000'; '\127'; '\128'; '\255' ];
  check "byte 254 stays clear" false "ab" 2 "\254";
  check "byte 1 stays clear" false "ab" 2 "\001";
  add "" 0 "\255";
  check "one high byte" true "\255" 0 "\255";
  (* Added with a keyword, probed with one byte, and the reverse. *)
  add "pq" 0 "while";
  check "keyword, then one byte" true "whil" 4 "e";
  check "keyword, then its prefix" false "whil" 4 "";
  add "do" 2 "n";
  check "one byte, then a keyword" true "" 0 "don";
  check "one byte, then a keyword split inside" true "dx" 1 "on";
  (* Adding a member again changes nothing. *)
  let n = Dedupe.count t in
  add "don" 1 "on";
  Alcotest.(check int) "re-add" n (Dedupe.count t);
  (* A reset clears the rows: re-added nodes start empty. *)
  Dedupe.reset t;
  Alcotest.(check int) "reset empties" 0 (Dedupe.count t);
  check "empty gone" false "" 0 "";
  check "sibling gone after reset" false "ab" 2 "c";
  add "ab" 2 "e";
  check "re-added" true "ab" 2 "e";
  check "old sibling stays gone" false "ab" 2 "c";
  check "old high byte stays gone" false "ab" 2 "\255";
  add "ab" 1 "zz";
  check "a second node after reset" true "azq" 2 "z";
  check "old keyword stays gone" false "whil" 4 "e";
  Alcotest.(check (list string)) "fold after reset" [ "abe"; "azz" ]
    (List.sort compare (Dedupe.fold List.cons t []))

let test_dedupe_rejects_bad_parts () =
  let t = Dedupe.create () in
  Alcotest.check_raises "index past the input"
    (Invalid_argument "Dedupe.open_prefix: index 3 outside the input") (fun () ->
      Dedupe.open_prefix t "ab" 3);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Dedupe.open_prefix: index -1 outside the input") (fun () ->
      Dedupe.open_prefix t "ab" (-1))

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
      ( "candidate queue",
        [
          qtest prop_candidate_queue_model;
          Alcotest.test_case "pop order golden" `Quick test_pop_order_golden;
          Alcotest.test_case "resumed pop order golden" `Quick
            test_resumed_pop_order_golden;
        ] );
      ( "dedupe",
        [
          qtest prop_dedupe_model;
          Alcotest.test_case "node format" `Quick test_dedupe_nodes;
          Alcotest.test_case "rejects bad parts" `Quick
            test_dedupe_rejects_bad_parts;
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
          Alcotest.test_case "checkpoint file round-trip" `Quick
            test_checkpoint_file_roundtrip;
          Alcotest.test_case "resume equivalence on every subject" `Slow
            test_resume_equivalence_all_subjects;
          Alcotest.test_case "resume rejects wrong subject" `Quick
            test_resume_rejects_wrong_subject;
          Alcotest.test_case "fault plan builds a crash corpus" `Quick
            test_fault_plan_crash_corpus;
          Alcotest.test_case "empty fault plan is the bare subject" `Quick
            test_empty_fault_plan_is_bare;
          Alcotest.test_case "the wrapper replaces the parse only" `Quick
            test_fault_wrapper_replaces_parse_only;
          Alcotest.test_case "a fault at index 0 hits the first execution" `Quick
            test_fault_at_first_execution;
          Alcotest.test_case "starvation faults surface as hangs" `Quick
            test_fault_plan_starvation_hangs;
        ] );
    ]
