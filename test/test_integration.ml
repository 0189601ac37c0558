(* End-to-end properties across the whole toolkit: every fuzzer on every
   subject honours the core contracts (reported inputs really are valid,
   tags stay within inventories, budgets are respected), and the
   tool-chain compositions (pipeline, mining) work on every subject they
   claim to support. *)

module Subject = Pdf_subjects.Subject
module Catalog = Pdf_subjects.Catalog
module Runner = Pdf_instr.Runner
module Coverage = Pdf_instr.Coverage

let subjects_under_test =
  [ "expr"; "paren"; "ini"; "csv"; "json"; "tinyc"; "tinyc-tt"; "tinyc-sem"; "mjs" ]

let check_corpus name subject inputs =
  List.iter
    (fun input ->
      if not (Subject.accepts subject input) then
        Alcotest.failf "%s: reported valid input %S is rejected" name input)
    inputs;
  let inventory = List.map (fun (t : Pdf_subjects.Token.t) -> t.tag) subject.Subject.tokens in
  List.iter
    (fun tag ->
      if not (List.mem tag inventory) then
        Alcotest.failf "%s: tag %S escaped the inventory" name tag)
    (Pdf_eval.Token_report.found_tags subject inputs)

let test_pfuzzer_contract () =
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let result =
        Pdf_core.Pfuzzer.fuzz
          { Pdf_core.Pfuzzer.default_config with max_executions = 1500 }
          subject
      in
      Alcotest.(check int)
        (name ^ ": budget exact") 1500 result.executions;
      check_corpus ("pfuzzer/" ^ name) subject result.valid_inputs)
    subjects_under_test

let test_afl_contract () =
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let result =
        Pdf_afl.Afl.fuzz
          { Pdf_afl.Afl.default_config with max_executions = 5000 }
          subject
      in
      check_corpus ("afl/" ^ name) subject result.valid_inputs)
    subjects_under_test

let test_klee_contract () =
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let result =
        Pdf_klee.Klee.fuzz
          { Pdf_klee.Klee.default_config with max_executions = 1000 }
          subject
      in
      check_corpus ("klee/" ^ name) subject result.valid_inputs)
    subjects_under_test

let test_table_subjects_contract () =
  List.iter
    (fun subject ->
      let result =
        Pdf_core.Pfuzzer.fuzz
          { Pdf_core.Pfuzzer.default_config with max_executions = 2000 }
          subject
      in
      check_corpus ("pfuzzer/" ^ subject.Subject.name) subject result.valid_inputs)
    [
      Pdf_tables.Grammars.table_expr;
      Pdf_tables.Grammars.table_expr_naive;
      Pdf_tables.Grammars.table_json;
    ]

let test_mining_round_trip () =
  (* Mining from a pFuzzer corpus and regenerating must stay within the
     language for the subjects whose frames map cleanly to nonterminals
     (mjs shares one frame site across precedence tiers, so its mined
     grammar legitimately overgeneralises; see DESIGN.md). *)
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let result =
        Pdf_core.Pfuzzer.fuzz
          { Pdf_core.Pfuzzer.default_config with max_executions = 4000 }
          subject
      in
      let grammar = Pdf_grammar.Miner.mine subject result.valid_inputs in
      let rng = Pdf_util.Rng.make 5 in
      let sentences = Pdf_grammar.Generator.generate_many rng ~max_depth:10 50 grammar in
      List.iter
        (fun s ->
          if s <> "" && not (Subject.accepts subject s) then
            Alcotest.failf "%s: mined grammar generated rejected %S" name s)
        sentences)
    [ "expr"; "paren"; "json"; "csv" ]

let test_pipeline_on_all_evaluation_subjects () =
  List.iter
    (fun (subject : Subject.t) ->
      let result = Pdf_eval.Pipeline.run ~budget_units:60_000 ~seed:1 subject in
      List.iter
        (fun input ->
          if not (Subject.accepts subject input) then
            Alcotest.failf "pipeline/%s: corpus input %S invalid" subject.name input)
        result.valid_inputs)
    Catalog.evaluation

let test_determinism_across_stack () =
  (* One fixed seed must give byte-identical results through every layer. *)
  let run () =
    let subject = Catalog.find "json" in
    let p =
      Pdf_core.Pfuzzer.fuzz
        { Pdf_core.Pfuzzer.default_config with seed = 9; max_executions = 2000 }
        subject
    in
    let pipeline = Pdf_eval.Pipeline.run ~budget_units:50_000 ~seed:9 subject in
    (p.valid_inputs, pipeline.valid_inputs)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair (list string) (list string))) "fully deterministic" a b

(* Two ablation shapes from EXPERIMENTS.md, pinned at seed 1 and 20k
   executions (the budget/100 of a default evaluation). *)
let valid_count ?(heuristic = Pdf_core.Heuristic.Prose) subject =
  let result =
    Pdf_core.Pfuzzer.fuzz
      { Pdf_core.Pfuzzer.default_config with heuristic; max_executions = 20_000 }
      subject
  in
  List.length result.valid_inputs

(* A1, §3: pure depth-first search never closes its brackets; the
   combined heuristic and breadth-first both do. *)
let test_dyck_strategy_shape () =
  let paren = Catalog.find "paren" in
  let valid heuristic = valid_count ~heuristic paren in
  Alcotest.(check int) "depth-first finds no valid input" 0
    (valid Pdf_core.Heuristic.Dfs);
  Alcotest.(check bool) "pFuzzer heuristic finds valid inputs" true
    (valid Pdf_core.Heuristic.Prose >= 1);
  Alcotest.(check bool) "breadth-first finds valid inputs" true
    (valid Pdf_core.Heuristic.Bfs >= 1)

(* A4, §7.1: out of the box, code coverage starves the search on a
   table-driven parser; table-element coverage plus diagnostics
   restores guidance, beyond the recursive-descent parser of the same
   language. *)
let test_table_driven_shape () =
  let naive = valid_count Pdf_tables.Grammars.table_expr_naive in
  let cells = valid_count Pdf_tables.Grammars.table_expr in
  let descent = valid_count (Catalog.find "expr") in
  Alcotest.(check bool)
    (Printf.sprintf "out of the box starves (%d valid)" naive)
    true (naive <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "table cells (%d valid) beat recursive descent (%d)" cells
       descent)
    true (cells > descent)

let () =
  Alcotest.run "integration"
    [
      ( "contracts",
        [
          Alcotest.test_case "pfuzzer on all subjects" `Quick test_pfuzzer_contract;
          Alcotest.test_case "afl on all subjects" `Quick test_afl_contract;
          Alcotest.test_case "klee on all subjects" `Quick test_klee_contract;
          Alcotest.test_case "table-driven subjects" `Quick test_table_subjects_contract;
        ] );
      ( "tool-chains",
        [
          Alcotest.test_case "mining round trip" `Quick test_mining_round_trip;
          Alcotest.test_case "pipeline on evaluation subjects" `Quick
            test_pipeline_on_all_evaluation_subjects;
          Alcotest.test_case "determinism across the stack" `Quick
            test_determinism_across_stack;
        ] );
      ( "ablation shapes",
        [
          Alcotest.test_case "A1 depth-first starves on paren" `Quick
            test_dyck_strategy_shape;
          Alcotest.test_case "A4 table-driven coverage" `Quick
            test_table_driven_shape;
        ] );
    ]
