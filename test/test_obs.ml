(* Tests for the telemetry subsystem: event serialization (golden lines
   and round-trips), observer stamping, the live status line, trace
   analysis, the allocation contract of the disabled path, and the
   jobs:1 ≡ jobs:N determinism of merged evaluation traces. *)

module Event = Pdf_obs.Event
module Json = Pdf_obs.Json
module Trace = Pdf_obs.Trace
module Observer = Pdf_obs.Observer
module Metrics = Pdf_obs.Metrics
module Progress = Pdf_obs.Progress
module Phase = Pdf_obs.Phase
module Trace_report = Pdf_obs.Trace_report
module Pfuzzer = Pdf_core.Pfuzzer
module Coverage = Pdf_instr.Coverage
module Catalog = Pdf_subjects.Catalog
module Histogram = Pdf_util.Stats.Histogram

let check = Alcotest.check

(* {1 Golden serialization: the JSONL schema is a stable format} *)

let stamp t_ns exec ev = { Event.t_ns; exec; ev }

let golden =
  [
    ( stamp 0 0
        (Event.Run_meta
           {
             subject = "json";
             outcomes = 76;
             seed = 1;
             max_executions = 500;
             sample = 1;
           }),
      {|{"ev":"run_meta","t":0,"n":0,"subject":"json","outcomes":76,"seed":1,"max_executions":500,"sample":1}|}
    );
    ( stamp 20 1
        (Event.Exec_done
           {
             dur_ns = 900;
             verdict = "rejected";
             sub_index = 2;
             cov = 10;
             cov_delta = 0;
             valid = false;
             len = 3;
             depth = 6;
           }),
      {|{"ev":"exec_done","t":20,"n":1,"dur_ns":900,"verdict":"rejected","sub":2,"cov":10,"cov_delta":0,"valid":false,"len":3,"depth":6}|}
    );
    ( stamp 30 2 (Event.Valid { input = "a\tb\xff"; cov = 12; count = 1 }),
      {|{"ev":"valid","t":30,"n":2,"input":"a\tb\u00ff","cov":12,"count":1}|} );
    ( stamp 72 4 (Event.Hang { total = 3 }),
      {|{"ev":"hang","t":72,"n":4,"total":3}|} );
    ( stamp 74 4
        (Event.Crash
           { exn = "Stdlib.Failure"; site = 0x1a2b; fresh = true; total = 1 }),
      {|{"ev":"crash","t":74,"n":4,"exn":"Stdlib.Failure","site":6699,"fresh":true,"total":1}|}
    );
    ( stamp 78 4 (Event.Retry { what = "cell"; attempt = 2; detail = "oops" }),
      {|{"ev":"retry","t":78,"n":4,"what":"cell","attempt":2,"detail":"oops"}|}
    );
    ( stamp 80 5
        (Event.Phases { spans = [ ("exec", 100); ("cache", 50) ]; wall_ns = 400 }),
      {|{"ev":"phases","t":80,"n":5,"exec_ns":100,"cache_ns":50,"wall_ns":400}|}
    );
    ( stamp 90 5
        (Event.Run_done { valid = 1; cov = 12; wall_ns = 400; execs_per_sec = 50.5 }),
      {|{"ev":"run_done","t":90,"n":5,"valid":1,"cov":12,"wall_ns":400,"execs_per_sec":50.5}|}
    );
  ]

let test_golden_lines () =
  List.iter
    (fun (ev, expected) ->
      check Alcotest.string (Event.kind ev.Event.ev) expected (Event.to_json_line ev))
    golden

let test_round_trip () =
  List.iter
    (fun (ev, _) ->
      let back = Event.of_json_line (Event.to_json_line ev) in
      check Alcotest.bool (Event.kind ev.Event.ev) true (back = ev))
    golden;
  (* Valid-input payloads are arbitrary byte strings; every byte must
     survive the trip through the escaper. *)
  let bytes = String.init 256 Char.chr in
  let ev = stamp 1 1 (Event.Valid { input = bytes; cov = 1; count = 1 }) in
  let back = Event.of_json_line (Event.to_json_line ev) in
  (match back.Event.ev with
   | Event.Valid v -> check Alcotest.string "all bytes round-trip" bytes v.input
   | _ -> Alcotest.fail "wrong event kind");
  Alcotest.check_raises "malformed line rejected" (Json.Malformed "expected '{' at 0")
    (fun () -> ignore (Event.of_json_line "not json"));
  (* Traces written while executions still carried an execution-tier
     tag and a prefix-cache flag, and before they carried the queue
     depth, keep loading: the retired fields are ignored and the depth
     reads 0. *)
  let old_line =
    {|{"ev":"exec_done","t":20,"n":1,"dur_ns":900,"verdict":"rejected","engine":"compiled","cached":true,"sub":2,"cov":10,"cov_delta":0,"valid":false,"len":3}|}
  in
  (match (Event.of_json_line old_line).Event.ev with
   | Event.Exec_done e ->
     check Alcotest.int "old exec_done parses" 2 e.sub_index;
     check Alcotest.string "old exec_done verdict" "rejected" e.verdict;
     check Alcotest.int "old exec_done depth" 0 e.depth
   | _ -> Alcotest.fail "wrong event kind");
  (* Run headers written before the sample rate was recorded, and while
     they still said whether the prefix cache was on, read as
     unsampled. *)
  let old_meta =
    {|{"ev":"run_meta","t":0,"n":0,"subject":"json","outcomes":76,"seed":1,"max_executions":500,"incremental":true}|}
  in
  match (Event.of_json_line old_meta).Event.ev with
  | Event.Run_meta m -> check Alcotest.int "sample defaults on old traces" 1 m.sample
  | _ -> Alcotest.fail "wrong event kind"

let test_normalize () =
  let line =
    {|{"ev":"exec_done","t":55,"n":1,"dur_ns":900,"verdict":"ok","cached":true,"sub":2,"cov":10,"cov_delta":0,"valid":false,"len":3}|}
  in
  let expected =
    {|{"ev":"exec_done","t":0,"n":1,"dur_ns":0,"verdict":"ok","cached":true,"sub":2,"cov":10,"cov_delta":0,"valid":false,"len":3}|}
  in
  check Alcotest.string "timing keys zeroed" expected (Trace.normalize_line line);
  check Alcotest.string "non-json passes through" "garbage" (Trace.normalize_line "garbage")

(* A \u escape whose four characters are not hex digits is malformed
   like any other bad line: the reader raises Json.Malformed, never a
   stray Failure, so normalize_line passes the line through and
   read_file reports its line number. *)
let test_bad_unicode_escape () =
  check Alcotest.bool "hex escape decodes" true
    (Json.parse_flat {|{"a":"\u0041\u00fF"}|} = [ ("a", Json.S "A\xff") ]);
  let bad = [ {|{"a":"\uzzzz"}|}; {|{"a":"\u+041"}|}; {|{"a":"\u_041"}|} ] in
  List.iter
    (fun line ->
      (match Json.parse_flat line with
       | _ -> Alcotest.failf "parse_flat accepted %s" line
       | exception Json.Malformed _ -> ());
      check Alcotest.string "passes through normalize" line
        (Trace.normalize_line line))
    bad;
  let path = Filename.temp_file "pdf_obs" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Event.to_json_line (stamp 1 1 (Event.Hang { total = 1 })) ^ "\n" ^ List.hd bad ^ "\n"));
  let outcome =
    match Trace.read_file path with
    | _ -> "accepted"
    | exception Failure m -> m
  in
  Sys.remove path;
  check Alcotest.bool ("read_channel names the line: " ^ outcome) true
    (String.starts_with ~prefix:"trace line 2: " outcome)

(* {1 Observer stamping with a deterministic clock} *)

let test_observer_stamps () =
  let t = ref 0 in
  let clock () = incr t; !t * 100 in
  let sink, contents = Trace.buffer () in
  let obs = Observer.create ~clock ~sink () in
  Observer.emit obs ~exec:3 (Event.Retry { what = "cell"; attempt = 1; detail = "" });
  Observer.emit obs ~exec:4 (Event.Hang { total = 1 });
  let lines = String.split_on_char '\n' (String.trim (contents ())) in
  let parsed = List.map Event.of_json_line lines in
  (match parsed with
   | [ a; b ] ->
     (* t0 was the creation read; each emit reads the clock once, so
        stamps advance by exactly one tick. *)
     check Alcotest.int "first stamp" 100 a.Event.t_ns;
     check Alcotest.int "second stamp" 200 b.Event.t_ns;
     check Alcotest.int "exec clock carried" 3 a.Event.exec;
     check Alcotest.bool "kinds" true
       (a.Event.ev = Event.Retry { what = "cell"; attempt = 1; detail = "" }
       && b.Event.ev = Event.Hang { total = 1 })
   | _ -> Alcotest.fail "expected exactly two lines");
  check Alcotest.bool "tracing on" true (Observer.tracing obs);
  check Alcotest.bool "tracing off" false
    (Observer.tracing (Observer.create ()))

let test_observer_spans () =
  let t = ref 0 in
  let clock () = incr t; !t * 10 in
  let obs = Observer.create ~clock ~metrics:(Metrics.create ()) () in
  let s = Observer.span_start obs in
  Observer.span_end obs Phase.Exec s;
  let s = Observer.span_start obs in
  Observer.span_end obs Phase.Queue s;
  check
    Alcotest.(list (pair string int))
    "phase totals"
    [ ("exec", 10); ("score", 0); ("queue", 10); ("gen", 0) ]
    (Observer.phase_totals obs)

(* {1 The live status line} *)

let test_progress_render () =
  check Alcotest.string "status line"
    "[pfuzzer] 500/2000 execs | 1234/s | queue 42 | valid 7 | cov 50.0% | plateau 12 | hang 2 | crash 3"
    (Progress.render ~execs:500 ~max_executions:2000 ~execs_per_sec:1234.0
       ~depth:42 ~valid:7 ~cov:38 ~outcomes:76 ~plateau:12 ~hangs:2 ~crashes:3);
  check Alcotest.string "no outcomes"
    "[pfuzzer] 1/10 execs | 0/s | queue 0 | valid 0 | cov 0.0% | plateau 1 | hang 0 | crash 0"
    (Progress.render ~execs:1 ~max_executions:10 ~execs_per_sec:0.0 ~depth:0
       ~valid:0 ~cov:0 ~outcomes:0 ~plateau:1 ~hangs:0 ~crashes:0)

(* {1 A real traced run: schema, consistency with the result, report} *)

let traced_run () =
  let subject = Catalog.find "json" in
  let config = { Pfuzzer.default_config with max_executions = 300 } in
  let sink, contents = Trace.buffer () in
  let obs = Observer.create ~sink ~metrics:(Metrics.create ()) () in
  let result = Pfuzzer.fuzz ~obs config subject in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (contents ()))
  in
  (result, List.map Event.of_json_line lines)

let test_traced_run_schema () =
  let result, events = traced_run () in
  check Alcotest.bool "nonempty" true (events <> []);
  let last_t = ref 0 and last_exec = ref 0 in
  List.iter
    (fun (s : Event.stamped) ->
      check Alcotest.bool "t monotone" true (s.t_ns >= !last_t);
      check Alcotest.bool "n non-decreasing" true (s.exec >= !last_exec);
      last_t := s.t_ns;
      last_exec := s.exec)
    events;
  let count p = List.length (List.filter p events) in
  check Alcotest.int "one exec_done per execution" result.executions
    (count (fun s -> match s.Event.ev with Event.Exec_done _ -> true | _ -> false));
  check Alcotest.int "one valid event per valid input"
    (List.length result.valid_inputs)
    (count (fun s -> match s.Event.ev with Event.Valid _ -> true | _ -> false));
  (* The final exec_done's coverage is the run's valid coverage. *)
  let final_cov =
    List.fold_left
      (fun acc (s : Event.stamped) ->
        match s.Event.ev with Event.Exec_done e -> e.cov | _ -> acc)
      (-1) events
  in
  check Alcotest.int "final coverage matches result"
    (Coverage.cardinal result.valid_coverage)
    final_cov;
  (* Run_done agrees with the result. *)
  (match List.rev events with
   | { Event.ev = Event.Run_done r; _ } :: _ ->
     check Alcotest.int "run_done valid" (List.length result.valid_inputs) r.valid;
     check Alcotest.int "run_done cov" (Coverage.cardinal result.valid_coverage) r.cov
   | _ -> Alcotest.fail "last event must be run_done");
  (* Phase spans can never exceed the wall clock. *)
  (match
     List.find_map
       (fun (s : Event.stamped) ->
         match s.Event.ev with
         | Event.Phases p -> Some (p.spans, p.wall_ns)
         | _ -> None)
       events
   with
   | None -> Alcotest.fail "no phases event"
   | Some (spans, wall_ns) ->
     let known = List.map Phase.name Phase.all in
     let spent =
       List.fold_left
         (fun acc (name, ns) -> if List.mem name known then acc + ns else acc)
         0 spans
     in
     check Alcotest.bool "phases sum <= wall" true (spent <= wall_ns))

(* An observer watches and never steers: a run with one, sampling every
   iteration into a metrics registry, finds exactly what the same run
   finds without one. Campaign workers rely on this, attaching an
   observer only when the campaign is traced. *)
let test_observer_is_neutral () =
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let config = { Pfuzzer.default_config with max_executions = 400; seed = 3 } in
      let sink, _ = Trace.buffer () in
      let obs = Observer.create ~sink ~metrics:(Metrics.create ()) () in
      let observed = Pfuzzer.fuzz ~obs config subject in
      check Alcotest.bool (name ^ ": same result with and without an observer") true
        (Pdf_check.Invariants.results_equal (Pfuzzer.fuzz config subject) observed))
    [ "json"; "expr"; "ini" ]

let test_trace_report_matches_run () =
  let result, events = traced_run () in
  let a = Trace_report.analyse events in
  check Alcotest.int "execs" result.executions a.Trace_report.execs;
  check Alcotest.int "final valid" (List.length result.valid_inputs) a.final_valid;
  check Alcotest.int "final cov"
    (Coverage.cardinal result.valid_coverage)
    a.final_cov;
  (* The bucketed curve ends on the true final point. *)
  let buckets = Trace_report.bucketed ~rows:10 a in
  check Alcotest.bool "rows bounded" true (List.length buckets <= 11);
  (match List.rev buckets with
   | last :: _ ->
     check Alcotest.int "last bucket exec" result.executions last.Trace_report.exec;
     check Alcotest.int "last bucket cov"
       (Coverage.cardinal result.valid_coverage)
       last.Trace_report.cov
   | [] -> Alcotest.fail "empty curve");
  (* CSV: header plus one row per execution. *)
  let csv = Trace_report.csv a in
  check Alcotest.int "csv rows" (result.executions + 1)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  (* Rendering shouldn't raise and mentions the summary numbers. *)
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Trace_report.render ppf a;
  Format.pp_print_flush ppf ();
  check Alcotest.bool "render nonempty" true (Buffer.length buf > 100)

(* A sampled run times the phases of 1 in [sample] executions, so the
   report scales the span totals by the rate recorded in run_meta;
   percentiles describe single spans and stay as recorded. *)
let test_trace_report_scales_sampled_phases () =
  let events sample =
    [
      stamp 0 0
        (Event.Run_meta
           {
             subject = "json";
             outcomes = 76;
             seed = 1;
             max_executions = 500;
             sample;
           });
      stamp 10_000_000_000 500
        (Event.Phases
           {
             spans = [ ("exec", 30_000_000); ("score", 10_000_000); ("exec_p50", 1_500) ];
             wall_ns = 10_000_000_000;
           });
    ]
  in
  let full = Trace_report.analyse (events 1) in
  let sampled = Trace_report.analyse (events 100) in
  check
    Alcotest.(list (pair string int))
    "sample 100 scales the totals x100"
    [ ("exec", 3_000_000_000); ("score", 1_000_000_000) ]
    sampled.Trace_report.phases;
  check
    Alcotest.(list (pair string int))
    "sample 1 keeps the totals" [ ("exec", 30_000_000); ("score", 10_000_000) ]
    full.Trace_report.phases;
  check
    Alcotest.(list (pair string int))
    "percentiles unscaled" full.phase_percentiles sampled.phase_percentiles;
  (* "other" is the wall clock minus the scaled sum: 10 - 3 - 1 s. *)
  let other_seconds a =
    let text = Format.asprintf "%a" (fun ppf -> Trace_report.render ppf) a in
    match
      List.find_opt (String.starts_with ~prefix:"| other ") (String.split_on_char '\n' text)
    with
    | Some row -> String.trim (List.nth (String.split_on_char '|' row) 2)
    | None -> Alcotest.fail "no other row"
  in
  check Alcotest.string "other = wall - scaled sum" "6.000" (other_seconds sampled);
  check Alcotest.string "other unsampled" "9.960" (other_seconds full)

(* A trace file may hold several runs: an evaluation grid's cells, each
   headed by a cell event, or a campaign's shard streams back to back,
   each opening with its own run_meta. The report gives one analysis per
   run, in file order. *)
let run_meta ~seed =
  Event.Run_meta
    {
      subject = "json";
      outcomes = 76;
      seed;
      max_executions = 100;
      sample = 1;
    }

let exec_done ~valid =
  Event.Exec_done
    {
      dur_ns = 1_000;
      verdict = (if valid then "accepted" else "rejected");
      sub_index = -1;
      cov = 3;
      cov_delta = 0;
      valid;
      len = 2;
      depth = 0;
    }

(* Each report's cell, and its run_meta seed, executions and valid
   inputs. *)
let check_runs msg expect events =
  let silent = Format.make_formatter (fun _ _ _ -> ()) ignore in
  check
    Alcotest.(list (pair (option (triple string string int)) (triple (option int) int int)))
    msg expect
    (List.map
       (fun (a : Trace_report.t) ->
         ( a.cell,
           ( Option.map (fun (m : Trace_report.meta) -> m.seed) a.meta,
             a.execs,
             a.final_valid ) ))
       (Trace_report.report_events silent events))

let test_trace_report_campaign_runs () =
  check_runs "one report per shard stream"
    [ (None, (Some 11, 3, 2)); (None, (Some 22, 2, 1)) ]
    [
      stamp 0 0 (run_meta ~seed:11);
      stamp 1 1 (exec_done ~valid:true);
      stamp 2 2 (exec_done ~valid:false);
      stamp 3 3 (exec_done ~valid:true);
      stamp 0 0 (run_meta ~seed:22);
      stamp 1 1 (exec_done ~valid:false);
      stamp 2 2 (exec_done ~valid:true);
    ]

(* pFuzzer cells carry their own run_meta after the cell event; AFL and
   KLEE cells carry only a run summary. *)
let test_trace_report_cell_runs () =
  let cell tool seed = Event.Cell { tool; subject = "json"; seed } in
  let summary valid = Event.Run_done { valid; cov = 3; wall_ns = 5; execs_per_sec = 8.0 } in
  check_runs "one report per cell, each keeping its run_meta"
    [
      (Some ("AFL", "json", 1), (None, 40, 1));
      (Some ("pFuzzer", "json", 1), (Some 1, 1, 1));
      (Some ("pFuzzer", "json", 2), (Some 2, 2, 0));
      (Some ("KLEE", "json", 1), (None, 30, 2));
    ]
    [
      stamp 0 0 (cell "AFL" 1);
      stamp 5 40 (summary 1);
      stamp 0 0 (cell "pFuzzer" 1);
      stamp 0 0 (run_meta ~seed:1);
      stamp 1 1 (exec_done ~valid:true);
      stamp 0 0 (cell "pFuzzer" 2);
      stamp 0 0 (run_meta ~seed:2);
      stamp 1 1 (exec_done ~valid:false);
      stamp 2 2 (exec_done ~valid:false);
      stamp 0 0 (cell "KLEE" 1);
      stamp 5 30 (summary 2);
    ]

let test_trace_report_headerless_run () =
  check_runs "a trace without headers is one run"
    [ (None, (None, 2, 1)) ]
    [ stamp 1 1 (exec_done ~valid:false); stamp 2 2 (exec_done ~valid:true) ];
  check_runs "an empty trace has no runs" [] []

(* Every execution draws one point of the queue-depth track. *)
let test_chrome_sink () =
  let _, events = traced_run () in
  let path = Filename.temp_file "pdf_obs" ".chrome.json" in
  let oc = open_out path in
  let sink = Trace.chrome oc in
  List.iter (Trace.emit sink) events;
  Trace.close sink;
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let trimmed = String.trim content in
  check Alcotest.bool "nonempty" true (String.length trimmed > 2);
  check Alcotest.char "opens array" '[' trimmed.[0];
  check Alcotest.char "closes array" ']' trimmed.[String.length trimmed - 1];
  let lines = List.map String.trim (String.split_on_char '\n' content) in
  let named name =
    List.filter (String.starts_with ~prefix:(Printf.sprintf {|{"name":%S|} name)) lines
  in
  let depth_points = named "queue_depth" in
  check Alcotest.int "one queue-depth point per execution"
    (List.length
       (List.filter
          (fun (s : Event.stamped) ->
            match s.ev with Event.Exec_done _ -> true | _ -> false)
          events))
    (List.length depth_points);
  (* The trace_event format reads a counter's series and the process's
     name from [args]: a value written beside them draws nothing. *)
  let find s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
    in
    go 0
  in
  let args_only ~args key line =
    let at = find line {|"args":{|} in
    at > 0
    && String.starts_with ~prefix:(Printf.sprintf {|"args":{%S:|} args)
         (String.sub line at (String.length line - at))
    && find (String.sub line 0 at) (Printf.sprintf "%S:" key) < 0
  in
  List.iter
    (fun l ->
      check Alcotest.bool ("depth under args: " ^ l) true
        (args_only ~args:"depth" "depth" l))
    depth_points;
  List.iter
    (fun l ->
      check Alcotest.bool ("branches under args: " ^ l) true
        (args_only ~args:"branches" "branches" l))
    (named "coverage");
  match named "process_name" with
  | [ l ] ->
    check Alcotest.bool ("process name under args: " ^ l) true
      (args_only ~args:"name" "arg_name" l
      && find l {|"args":{"name":"pfuzzer json seed|} > 0)
  | ls -> Alcotest.failf "%d process_name entries" (List.length ls)

(* {1 The disabled path allocates within the fuzzer's own budget}

   With no observer installed every telemetry site is one branch; no
   event record, no closure, no clock read. The fuzzer itself allocates
   ~63 minor words per execution on the json subject (dev profile,
   this test's campaign, every execution a cold direct-style parse in
   the campaign's one context); the budget below has ~70% headroom,
   and the staged continuation-passing parser json had before (~346)
   already failed it. If this trips, something started allocating on
   the hot path — tracing on costs ~1800 words/exec more, so even a
   single stray event construction blows the budget immediately. *)

let test_disabled_path_allocation () =
  let subject = Catalog.find "json" in
  let config = { Pfuzzer.default_config with max_executions = 2000 } in
  ignore (Pfuzzer.fuzz config subject) (* warm up *);
  let w0 = Gc.minor_words () in
  let result = Pfuzzer.fuzz config subject in
  let w1 = Gc.minor_words () in
  let per_exec = (w1 -. w0) /. float_of_int result.executions in
  if per_exec > 110.0 then
    Alcotest.failf "disabled-path allocation: %.0f minor words/exec (budget 110)"
      per_exec

(* {1 The candidate-generation span is free when telemetry is off}

   The [Gen] span brackets dedupe probing and child construction — the
   hottest code in the fuzzer. With no observer installed each of its
   sites must compile down to one branch, exactly like the other phase
   spans (well under the 2% overhead the phase machinery is allowed):
   no clock read, no event record, and — the part a timer on this noisy
   box can actually enforce deterministically — not one word of
   allocation. The budget has ~70% headroom over the measured disabled
   path (expr, dev profile: ~59 minor words/exec, all of it the
   campaign's own working set; ~149 with the staged continuation-passing
   parser expr had before, which fails it); if it trips, a span site or
   the candidate loop started allocating per replacement. *)

let test_disabled_gen_span_allocation () =
  let subject = Catalog.find "expr" in
  let config = { Pfuzzer.default_config with max_executions = 2000 } in
  ignore (Pfuzzer.fuzz config subject) (* warm up *);
  let w0 = Gc.minor_words () in
  let result = Pfuzzer.fuzz config subject in
  let w1 = Gc.minor_words () in
  let per_exec = (w1 -. w0) /. float_of_int result.executions in
  if per_exec > 100.0 then
    Alcotest.failf
      "disabled-obs candidate generation: %.0f minor words/exec (budget 100)"
      per_exec

(* {1 Result timing fields} *)

let test_result_timing () =
  let subject = Catalog.find "json" in
  let result =
    Pfuzzer.fuzz { Pfuzzer.default_config with max_executions = 100 } subject
  in
  check Alcotest.bool "wall clock positive" true (result.wall_clock_s > 0.0);
  check Alcotest.bool "execs/sec consistent" true
    (abs_float
       (result.execs_per_sec -. (float_of_int result.executions /. result.wall_clock_s))
     < 1.0)

(* {1 Sampled tracing: 1/1 is today's full trace, 1/N is deterministic} *)

let sampled_trace ?sample () =
  let subject = Catalog.find "json" in
  let config = { Pfuzzer.default_config with max_executions = 200 } in
  let sink, contents = Trace.buffer () in
  let obs = Observer.create ~sink ?sample () in
  let result = Pfuzzer.fuzz ~obs config subject in
  (result, contents ())

let count_events pred trace =
  List.length
    (List.filter
       (fun l -> l <> "" && pred (Event.of_json_line l).Event.ev)
       (String.split_on_char '\n' trace))

let test_sample_one_is_full_trace () =
  let _, full = sampled_trace () in
  let _, one = sampled_trace ~sample:1 () in
  check Alcotest.string "sample 1 ≡ unsampled trace"
    (Trace.normalize full) (Trace.normalize one)

let test_sampling_thins_exec_events () =
  let result, full = sampled_trace () in
  let result', sampled = sampled_trace ~sample:100 () in
  check Alcotest.int "fuzzing result unaffected by sampling"
    result.Pfuzzer.executions result'.Pfuzzer.executions;
  let is_exec = function Event.Exec_done _ -> true | _ -> false in
  let full_exec = count_events is_exec full in
  let sampled_exec = count_events is_exec sampled in
  check Alcotest.bool "exec-level events thinned" true
    (sampled_exec * 10 < full_exec);
  (* Structural events survive sampling untouched. *)
  let is_valid = function Event.Valid _ -> true | _ -> false in
  check Alcotest.int "valid events all retained"
    (count_events is_valid full) (count_events is_valid sampled);
  let is_run_done = function Event.Run_done _ -> true | _ -> false in
  check Alcotest.int "run_done retained" 1 (count_events is_run_done sampled);
  (* Deterministic on the execution index: two sampled runs agree. *)
  let _, sampled' = sampled_trace ~sample:100 () in
  check Alcotest.string "sampling is deterministic"
    (Trace.normalize sampled) (Trace.normalize sampled');
  Alcotest.check_raises "sample must be >= 1"
    (Invalid_argument "Observer.create: sample must be >= 1") (fun () ->
      ignore (Observer.create ~sample:0 ()))

(* Sampling is per loop iteration and uniform over the loop: at 1 in 10,
   the exec_done events and every phase's span count land near a tenth
   of the full run's. Keying on the execution index instead skews them:
   an iteration runs one or two executions and queues children only
   after the second, so a fixed residue over-weights the extension
   probe and the children it queues. Structural events are never
   sampled. *)
let test_sampling_is_uniform () =
  let run sample =
    let subject = Catalog.find "json" in
    let config = { Pfuzzer.default_config with seed = 1; max_executions = 20_000 } in
    let sink, contents = Trace.buffer () in
    let metrics = Metrics.create () in
    let obs = Observer.create ~sink ~sample ~metrics () in
    ignore (Pfuzzer.fuzz ~obs config subject);
    let kinds = Hashtbl.create 16 and valid_execs = ref 0 in
    String.split_on_char '\n' (contents ())
    |> List.iter (fun l ->
           if l <> "" then begin
             let ev = (Event.of_json_line l).Event.ev in
             let k = Event.kind ev in
             Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k));
             match ev with
             | Event.Exec_done { valid = true; _ } -> incr valid_execs
             | _ -> ()
           end);
    let spans =
      List.map
        (fun p ->
          let name = Phase.name p in
          (name, Histogram.count (Metrics.histogram metrics ("phase/" ^ name ^ "_ns"))))
        Phase.all
    in
    (kinds, spans, !valid_execs)
  in
  let full_kinds, full_spans, full_valid = run 1 and kinds, spans, valid_execs = run 10 in
  let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let near what full got =
    let expected = float_of_int full /. 10.0 in
    if Float.abs (float_of_int got -. expected) > 0.25 *. expected then
      Alcotest.failf "%s: %d at sample 10, expected %.0f +- 25%%" what got expected
  in
  (* Three standard deviations of a 1-in-10 binomial sample, plus one. *)
  let near_binomial what full got =
    let expected = float_of_int full /. 10.0 in
    let spread = (3.0 *. sqrt (0.09 *. float_of_int full)) +. 1.0 in
    if Float.abs (float_of_int got -. expected) > spread then
      Alcotest.failf "%s: %d at sample 10, expected %.1f +- %.1f" what got expected spread
  in
  let structural =
    [ "run_meta"; "valid"; "hang"; "crash"; "phases"; "run_done" ]
  in
  List.iter
    (fun k -> check Alcotest.int (k ^ " never sampled") (count full_kinds k) (count kinds k))
    structural;
  Hashtbl.iter
    (fun k full -> if not (List.mem k structural) then near k full (count kinds k))
    full_kinds;
  (* A 25% bound needs hundreds of spans. The score phase records one
     span per re-rank, that is per valid input (19 in this campaign; a
     push's scoring is part of its queue span), so it is held to the
     binomial spread instead. *)
  List.iter2
    (fun (name, full) (_, got) ->
      check Alcotest.bool (name ^ " spans recorded") true (full > 0);
      if full >= 400 then near ("phase " ^ name ^ " spans") full got
      else near_binomial ("phase " ^ name ^ " spans") full got)
    full_spans spans;
  (* That spread cannot tell a sampler that drops score spans from one
     that keeps a tenth of them, so the score spans must also be exactly
     the re-ranks of the sampled iterations: one per valid execution
     whose [exec_done] the trace kept, which follows the same decision.
     At 1 in 10 that is none of the 19 here, so it is checked at 1 in 2
     as well, where it is 8. *)
  let score spans = List.assoc (Phase.name Phase.Score) spans in
  check Alcotest.int "score spans at sample 1" full_valid (score full_spans);
  check Alcotest.int "score spans at sample 10" valid_execs (score spans);
  let _, spans, valid_execs = run 2 in
  check Alcotest.bool "valid executions sampled at 2" true (valid_execs > 0);
  check Alcotest.int "score spans at sample 2" valid_execs (score spans)

(* {1 Traces from older builds} *)

(* One line of each kind that older builds emitted from the search
   loop, the prefix cache, the campaign coordinator, the live status
   line and the fault hook, as the last build that had them wrote it:
   reading skips them, and nothing else. *)
let test_read_file_skips_retired_kinds () =
  let first = stamp 1 1 (Event.Valid { input = "[]"; cov = 3; count = 1 }) in
  let last = stamp 9 2 (Event.Hang { total = 1 }) in
  let write lines =
    let path = Filename.temp_file "pdf_obs" ".jsonl" in
    Out_channel.with_open_bin path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    path
  in
  let read lines =
    let path = write lines in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Trace.read_file path)
  in
  let retired =
    [
      {|{"ev":"exec_start","t":2,"n":1,"len":3,"prefix":2}|};
      {|{"ev":"queue_rerank","t":3,"n":1,"depth":9}|};
      {|{"ev":"queue_trunc","t":4,"n":1,"dropped":5,"depth":9}|};
      {|{"ev":"cache_evict","t":5,"n":1,"evictions":3}|};
      {|{"ev":"reset","t":6,"n":2,"table":"dedupe"}|};
      {|{"ev":"rescue","t":7,"n":2,"prefix":5}|};
      {|{"ev":"shard","t":91,"n":0,"shard":2,"seed":77,"budget":500}|};
      {|{"ev":"worker_spawn","t":92,"n":0,"worker":1,"pid":4242,"shards":2}|};
      {|{"ev":"worker_frame","t":93,"n":0,"worker":1,"shard":2,"seq":250,"final":false}|};
      {|{"ev":"worker_exit","t":94,"n":0,"worker":1,"status":"signal:9","missing":1}|};
      {|{"ev":"queue_push","t":178250,"n":2,"prio":-2.0,"len":1,"depth":1}|};
      {|{"ev":"queue_pop","t":252869,"n":2,"prio":-2.0,"len":1,"depth":28}|};
      {|{"ev":"snapshot","t":70,"n":4,"execs_per_sec":1234.0,"depth":5,"valid":1,"cov":12,"hits":3,"misses":1,"plateau":2,"hangs":1,"crashes":0}|};
      {|{"ev":"fault","t":76,"n":4,"kind":"starve_fuel"}|};
      {|{"ev":"cache_hit","t":228163,"n":2,"saved":1}|};
      {|{"ev":"cache_miss","t":206169,"n":1}|};
    ]
  in
  check Alcotest.bool "retired kinds skipped" true
    (read ((Event.to_json_line first :: retired) @ [ Event.to_json_line last ])
     = [ first; last ]);
  (* A kind no build ever emitted is still an error. *)
  match read [ Event.to_json_line first; {|{"ev":"exec_begin","t":2,"n":1}|} ] with
  | _ -> Alcotest.fail "an unknown kind was accepted"
  | exception Failure m ->
    check Alcotest.bool ("unknown kind names its line: " ^ m) true
      (String.starts_with ~prefix:"trace line 2: " m)

(* {1 jobs:1 ≡ jobs:N merged-trace determinism} *)

let grid_trace ~jobs =
  let path = Filename.temp_file "pdf_obs" ".jsonl" in
  let oc = open_out path in
  let config =
    { Pdf_eval.Experiment.budget_units = 10_000; seeds = [ 1; 2 ]; verbose = false }
  in
  let subjects = [ Catalog.find "json"; Catalog.find "ini" ] in
  let (_ : Pdf_eval.Experiment.t) =
    Pdf_eval.Experiment.run ~jobs ~trace:oc config subjects
  in
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  content

let test_merged_trace_determinism () =
  let a = grid_trace ~jobs:1 and b = grid_trace ~jobs:3 in
  check Alcotest.bool "same structure up to timestamps" true
    (Trace.normalize a = Trace.normalize b);
  (* Cell headers appear once per (subject, tool, seed), in grid order. *)
  let cells =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match Event.of_json_line l with
          | { Event.ev = Event.Cell c; _ } -> Some c.tool
          | _ -> None)
      (String.split_on_char '\n' a)
  in
  check Alcotest.int "cell count" (2 * 3 * 2) (List.length cells)

let () =
  Alcotest.run "pdf_obs"
    [
      ( "serialization",
        [
          Alcotest.test_case "golden JSONL lines" `Quick test_golden_lines;
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "bad unicode escape" `Quick
            test_bad_unicode_escape;
        ] );
      ( "observer",
        [
          Alcotest.test_case "stamping" `Quick test_observer_stamps;
          Alcotest.test_case "phase spans" `Quick test_observer_spans;
        ] );
      ("progress", [ Alcotest.test_case "render" `Quick test_progress_render ]);
      ( "sampling",
        [
          Alcotest.test_case "sample 1 is the full trace" `Quick
            test_sample_one_is_full_trace;
          Alcotest.test_case "sample N thins exec events" `Quick
            test_sampling_thins_exec_events;
          Alcotest.test_case "sampling is uniform over iterations" `Quick
            test_sampling_is_uniform;
        ] );
      ( "older traces",
        [
          Alcotest.test_case "retired kinds are skipped" `Quick
            test_read_file_skips_retired_kinds;
        ] );
      ( "traced run",
        [
          Alcotest.test_case "schema and consistency" `Quick test_traced_run_schema;
          Alcotest.test_case "an observer does not change the result" `Quick
            test_observer_is_neutral;
          Alcotest.test_case "trace-report matches run" `Quick
            test_trace_report_matches_run;
          Alcotest.test_case "trace-report scales sampled phases" `Quick
            test_trace_report_scales_sampled_phases;
          Alcotest.test_case "trace-report: one run per shard stream" `Quick
            test_trace_report_campaign_runs;
          Alcotest.test_case "trace-report: one run per grid cell" `Quick
            test_trace_report_cell_runs;
          Alcotest.test_case "trace-report: a headerless trace is one run" `Quick
            test_trace_report_headerless_run;
          Alcotest.test_case "chrome sink" `Quick test_chrome_sink;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path allocation" `Quick
            test_disabled_path_allocation;
          Alcotest.test_case "disabled gen span allocation" `Quick
            test_disabled_gen_span_allocation;
          Alcotest.test_case "result timing fields" `Quick test_result_timing;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "jobs:1 = jobs:N merged trace" `Quick
            test_merged_trace_determinism;
        ] );
    ]
