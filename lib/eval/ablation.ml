(* The design-argument experiments that sit beside the paper's main grid
   (DESIGN.md §4): the A1–A6 ablations, the §6.2 pipeline (P1) and the
   §4 instrumentation overhead (B1). Budgets derive from the grid's:
   budget/100 pFuzzer executions on paren, json and the table parsers,
   budget/40 on tinyC (a pFuzzer execution costs 100 units, so those
   are matched and 2.5× budgets respectively). *)

module Render = Pdf_util.Render
module Rng = Pdf_util.Rng
module Coverage = Pdf_instr.Coverage
module Subject = Pdf_subjects.Subject
module Catalog = Pdf_subjects.Catalog
module Pfuzzer = Pdf_core.Pfuzzer
module Heuristic = Pdf_core.Heuristic

(* {1 Ablation A1: search strategies on the Dyck language}

   Section 3 argues that neither pure depth-first nor pure breadth-first
   search closes bracket prefixes effectively, motivating the combined
   heuristic. *)

let nesting_depth input =
  let depth = ref 0 and best = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' | '[' | '{' | '<' ->
        incr depth;
        if !depth > !best then best := !depth
      | ')' | ']' | '}' | '>' -> decr depth
      | _ -> ())
    input;
  !best

let ablation_dyck ppf ~budget_units =
  Render.section ppf "A1: search strategy on balanced brackets (Section 3)";
  let subject = Catalog.find "paren" in
  let execs = max 1 (budget_units / 100) in
  let rows =
    List.map
      (fun (name, heuristic) ->
        let result =
          Pfuzzer.fuzz
            { Pfuzzer.default_config with heuristic; max_executions = execs }
            subject
        in
        let max_nest =
          List.fold_left (fun acc s -> max acc (nesting_depth s)) 0 result.valid_inputs
        in
        [
          name;
          string_of_int (List.length result.valid_inputs);
          string_of_int max_nest;
          Printf.sprintf "%.1f" (Coverage.percent result.valid_coverage subject.registry);
          (match result.first_valid_at with Some n -> string_of_int n | None -> "-");
        ])
      [
        ("pFuzzer heuristic", Heuristic.Prose);
        ("depth-first", Heuristic.Dfs);
        ("breadth-first", Heuristic.Bfs);
        ("coverage only", Heuristic.Coverage_only);
      ]
  in
  Render.table ppf
    ~title:(Printf.sprintf "paren subject, %d executions per strategy" execs)
    ~header:[ "strategy"; "valid inputs"; "max nesting"; "coverage %"; "first valid at" ]
    rows

(* {1 Ablation A2: heuristic term ablation on tinyC}

   Including the paper's own pseudo-code/prose discrepancy on the sign
   of the numParents term (Algorithm 1, line 50). *)

let ablation_heuristic ppf ~budget_units =
  Render.section ppf "A2: Algorithm 1 heuristic variants on tinyC";
  let subject = Catalog.find "tinyc" in
  let execs = max 1 (budget_units / 40) in
  let rows =
    List.map
      (fun (name, heuristic) ->
        let result =
          Pfuzzer.fuzz
            { Pfuzzer.default_config with heuristic; max_executions = execs }
            subject
        in
        let tags = Token_report.found_tags subject result.valid_inputs in
        [
          name;
          string_of_int (List.length tags);
          Printf.sprintf "%.1f" (Coverage.percent result.valid_coverage subject.registry);
          string_of_int (List.length result.valid_inputs);
        ])
      [
        ("prose (default)", Heuristic.Prose);
        ("paper formula (+parents)", Heuristic.Paper_formula);
        ("no stack term", Heuristic.No_stack);
        ("no length term", Heuristic.No_length);
        ("no replacement bonus", Heuristic.No_replacement);
        ("coverage only", Heuristic.Coverage_only);
      ]
  in
  Render.table ppf
    ~title:(Printf.sprintf "tinyc subject, %d executions per variant" execs)
    ~header:[ "variant"; "tokens found"; "coverage %"; "valid inputs" ]
    rows

(* {1 Ablation A3: grammar mining (Section 7.4)} *)

let ablation_grammar ppf ~budget_units =
  Render.section ppf "A3: pFuzzer vs mined-grammar generation (Section 7.4)";
  let subject = Catalog.find "json" in
  let execs = max 1 (budget_units / 100) in
  let result =
    Pfuzzer.fuzz { Pfuzzer.default_config with max_executions = execs } subject
  in
  let depth_of inputs =
    List.fold_left
      (fun acc s -> max acc (Subject.run subject s).Pdf_instr.Runner.max_depth)
      0 inputs
  in
  let grammar = Pdf_grammar.Miner.mine subject result.valid_inputs in
  let rng = Rng.make 17 in
  let sentences = Pdf_grammar.Generator.generate_many rng ~max_depth:16 500 grammar in
  let accepted = List.filter (Subject.accepts subject) sentences in
  let rows =
    [
      [
        "pFuzzer alone";
        string_of_int (List.length result.valid_inputs);
        string_of_int (depth_of result.valid_inputs);
        Printf.sprintf "%d execs" result.executions;
      ];
      [
        "mined grammar";
        string_of_int (List.length accepted);
        string_of_int (depth_of accepted);
        Printf.sprintf "%d/%d sentences accepted" (List.length accepted)
          (List.length sentences);
      ];
    ]
  in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "json subject: grammar mined from %d pFuzzer inputs (%d productions)"
         (List.length result.valid_inputs)
         (Pdf_grammar.Grammar.production_count grammar))
    ~header:[ "generator"; "valid inputs"; "max recursion depth"; "notes" ]
    rows

(* {1 Ablation A4: table-driven parsers (Section 7.1)}

   The paper predicts code coverage will not guide the search on a
   table-driven parser "out of the box" and proposes coverage of table
   elements instead. Both driver configurations parse exactly the same
   language as the recursive-descent expr subject. *)

let ablation_tables ppf ~budget_units =
  Render.section ppf "A4: table-driven parsing (Section 7.1)";
  let execs = max 1 (budget_units / 100) in
  let rows =
    List.map
      (fun (label, subject) ->
        let result =
          Pfuzzer.fuzz { Pfuzzer.default_config with max_executions = execs } subject
        in
        [
          label;
          string_of_int (List.length result.valid_inputs);
          Printf.sprintf "%.1f"
            (Coverage.percent result.valid_coverage subject.Subject.registry);
          (match result.first_valid_at with Some n -> string_of_int n | None -> "-");
        ])
      [
        ("recursive descent (paper setting)", Catalog.find "expr");
        ("table-driven, cells + diagnostics", Pdf_tables.Grammars.table_expr);
        ("table-driven, out of the box", Pdf_tables.Grammars.table_expr_naive);
        ("table-driven LL(1) JSON", Pdf_tables.Grammars.table_json);
      ]
  in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "pFuzzer on three parsers for the same language, %d executions each" execs)
    ~header:[ "parser"; "valid inputs"; "coverage %"; "first valid at" ]
    rows

(* {1 Ablation A5: token-taint recovery (Section 7.2)}

   Tokenization breaks the taint flow: the parser's "expected token"
   checks carry no comparison the fuzzer can satisfy (why the paper's
   pFuzzer misses do/else/while on tinyC). The tinyc-tt variant re-attaches
   expectations to the token's input position, as §7.2 proposes. *)

let ablation_token_taints ppf ~budget_units =
  Render.section ppf "A5: §7.2 taint recovery through the tokenizer";
  let execs = max 1 (budget_units / 40) in
  let rows =
    List.map
      (fun name ->
        let subject = Catalog.find name in
        let result =
          Pfuzzer.fuzz { Pfuzzer.default_config with max_executions = execs } subject
        in
        let tags = Token_report.found_tags subject result.valid_inputs in
        [
          name;
          string_of_int (List.length tags);
          (if List.mem "while" tags then "yes" else "no");
          Printf.sprintf "%.1f" (Coverage.percent result.valid_coverage subject.registry);
        ])
      [ "tinyc"; "tinyc-tt" ]
  in
  Render.table ppf
    ~title:(Printf.sprintf "pFuzzer, %d executions per variant" execs)
    ~header:[ "subject"; "tokens found"; "finds `while'"; "coverage %" ]
    rows

(* {1 Ablation A6: semantic restrictions (Section 7.3)}

   pFuzzer assumes that a character accepted by the parser is correct, so
   its outputs pass the parser but routinely fail delayed context-sensitive
   checks. We fuzz the plain tinyC, then replay its valid inputs against
   the variant whose interpreter rejects use-before-assignment. *)

let ablation_semantics ppf ~budget_units =
  Render.section ppf "A6: §7.3 delayed semantic checks";
  let plain = Catalog.find "tinyc" and sem = Catalog.find "tinyc-sem" in
  let execs = max 1 (budget_units / 40) in
  let result =
    Pfuzzer.fuzz { Pfuzzer.default_config with max_executions = execs } plain
  in
  let survivors = List.filter (Subject.accepts sem) result.valid_inputs in
  let total = List.length result.valid_inputs in
  Render.table ppf
    ~title:
      (Printf.sprintf "pFuzzer corpus from plain tinyC (%d executions)" execs)
    ~header:[ "measure"; "count" ]
    [
      [ "parser-valid inputs"; string_of_int total ];
      [ "also semantically valid"; string_of_int (List.length survivors) ];
      [
        "killed by use-before-assignment";
        string_of_int (total - List.length survivors);
      ];
    ];
  Format.fprintf ppf
    "Syntactically valid inputs failing the semantic check confirm the@.\
     paper's §7.3 limitation: the search has no notion of delayed constraints.@."

(* {1 The §6.2 pipeline: lexical -> syntactic -> symbolic} *)

let pipeline ppf ~budget_units =
  Render.section ppf "P1: AFL -> pFuzzer -> KLEE hand-over (Section 6.2)";
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let result = Pipeline.run ~budget_units ~seed:1 subject in
      let rows =
        List.map
          (fun (s : Pipeline.stage_report) ->
            [
              Tool.display_name s.stage;
              string_of_int s.executions;
              string_of_int s.new_valid;
              Printf.sprintf "%.1f" s.coverage_after;
            ])
          result.stages
      in
      let tags = Token_report.found_tags subject result.valid_inputs in
      Render.table ppf
        ~title:
          (Printf.sprintf "%s: %d units total; final corpus %d inputs, %d tokens"
             name budget_units
             (List.length result.valid_inputs)
             (List.length tags))
        ~header:[ "stage"; "executions"; "new valid"; "cumulative coverage %" ]
        rows)
    [ "json"; "tinyc" ]

(* {1 B1: instrumentation overhead (Section 4)}

   The one wall-clock table: one json input parsed with full
   instrumentation, with coverage only, and by the subject's plain
   oracle scanner, each the median of [rounds] timed loops. *)

let overhead ppf =
  Render.section ppf "B1: instrumentation overhead (Section 4)";
  let json = Catalog.find "json" in
  let input = {|{"key": [1, -2.5e3, true, false, null], "s": "txt"}|} in
  let rounds = 5 and iters = 2_000 in
  let median_ns f =
    Pdf_util.Stats.percentile 50.
      (List.init rounds (fun _ ->
           let t0 = Pdf_obs.Clock.now_ns () in
           for _ = 1 to iters do
             ignore (f ())
           done;
           float_of_int (Pdf_obs.Clock.now_ns () - t0) /. float_of_int iters))
  in
  let scanner = median_ns (fun () -> json.tokenize input) in
  let row name ns =
    [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.1fx" (ns /. scanner) ]
  in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "json, median of %d rounds of %d parses (the paper reports ~100x \
          for its LLVM taint pass)"
         rounds iters)
    ~header:[ "parse"; "ns/run"; "vs scanner" ]
    [
      row "full instrumentation" (median_ns (fun () -> Subject.run json input));
      row "coverage only"
        (median_ns (fun () -> Subject.run ~track_comparisons:false json input));
      row "plain scanner" scanner;
    ]

let report ppf ~budget_units =
  ablation_dyck ppf ~budget_units;
  ablation_heuristic ppf ~budget_units;
  ablation_grammar ppf ~budget_units;
  ablation_tables ppf ~budget_units;
  ablation_token_taints ppf ~budget_units;
  ablation_semantics ppf ~budget_units;
  pipeline ppf ~budget_units;
  overhead ppf
