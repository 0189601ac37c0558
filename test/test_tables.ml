module Cfg = Pdf_tables.Cfg
module Analysis = Pdf_tables.Analysis
module Ll1 = Pdf_tables.Ll1
module Driver = Pdf_tables.Driver
module Grammars = Pdf_tables.Grammars
module Charset = Pdf_util.Charset
module Subject = Pdf_subjects.Subject
module Runner = Pdf_instr.Runner
module Rng = Pdf_util.Rng
module Comparison = Pdf_instr.Comparison

let qtest = QCheck_alcotest.to_alcotest

(* A tiny textbook grammar with known FIRST/FOLLOW sets:
     S -> 'a' S | B 'c'
     B -> 'b' B | ε *)
let textbook =
  Cfg.make ~start:"s"
    [
      { Cfg.lhs = "s"; rhs = [ Cfg.T 'a'; Cfg.N "s" ] };
      { Cfg.lhs = "s"; rhs = [ Cfg.N "b"; Cfg.T 'c' ] };
      { Cfg.lhs = "b"; rhs = [ Cfg.T 'b'; Cfg.N "b" ] };
      { Cfg.lhs = "b"; rhs = [] };
    ]

let charset = Alcotest.testable Charset.pp Charset.equal

let test_cfg_validation () =
  Alcotest.check_raises "undefined nonterminal"
    (Invalid_argument "Cfg.make: nonterminal \"ghost\" has no production") (fun () ->
      ignore (Cfg.make ~start:"s" [ { Cfg.lhs = "s"; rhs = [ Cfg.N "ghost" ] } ]));
  Alcotest.check_raises "undefined start"
    (Invalid_argument "Cfg.make: start symbol \"t\" has no production") (fun () ->
      ignore (Cfg.make ~start:"t" [ { Cfg.lhs = "s"; rhs = [] } ]))

let test_cfg_accessors () =
  Alcotest.(check (list string)) "nonterminals in order" [ "s"; "b" ]
    (Cfg.nonterminals textbook);
  Alcotest.(check int) "productions of s" 2 (List.length (Cfg.productions_of textbook "s"));
  Alcotest.(check int) "index of first" 0
    (Cfg.production_index textbook (List.hd (Cfg.productions textbook)))

let test_nullable () =
  let a = Analysis.analyze textbook in
  Alcotest.(check bool) "b nullable" true (Analysis.nullable a "b");
  Alcotest.(check bool) "s not nullable" false (Analysis.nullable a "s")

let test_first () =
  let a = Analysis.analyze textbook in
  Alcotest.check charset "FIRST(s) = {a,b,c}" (Charset.of_string "abc")
    (Analysis.first a "s");
  Alcotest.check charset "FIRST(b) = {b}" (Charset.of_string "b") (Analysis.first a "b")

let test_follow () =
  let a = Analysis.analyze textbook in
  Alcotest.check charset "FOLLOW(b) = {c}" (Charset.of_string "c")
    (Analysis.follow a "b");
  Alcotest.(check bool) "EOF follows s" true (Analysis.follow_eof a "s");
  Alcotest.(check bool) "EOF does not follow b" false (Analysis.follow_eof a "b")

let test_first_of_rhs () =
  let a = Analysis.analyze textbook in
  let set, nullable = Analysis.first_of_rhs a [ Cfg.N "b"; Cfg.T 'c' ] in
  Alcotest.check charset "FIRST(Bc)" (Charset.of_string "bc") set;
  Alcotest.(check bool) "Bc not nullable" false nullable;
  let _, nullable = Analysis.first_of_rhs a [ Cfg.N "b" ] in
  Alcotest.(check bool) "B nullable" true nullable

let test_ll1_build () =
  match Ll1.build textbook with
  | Error c -> Alcotest.failf "unexpected conflict: %a" Ll1.pp_conflict c
  | Ok table ->
    Alcotest.(check bool) "s/a entry" true (Ll1.lookup table "s" 'a' <> None);
    Alcotest.(check bool) "s/b entry selects B c" true
      (match Ll1.lookup table "s" 'b' with
       | Some p -> p.Cfg.rhs = [ Cfg.N "b"; Cfg.T 'c' ]
       | None -> false);
    Alcotest.(check bool) "b/c entry is the epsilon production" true
      (match Ll1.lookup table "b" 'c' with Some p -> p.Cfg.rhs = [] | None -> false);
    Alcotest.(check bool) "no EOF entry for s" true (Ll1.lookup_eof table "s" = None);
    Alcotest.check charset "expected(s)" (Charset.of_string "abc")
      (Ll1.expected table "s");
    Alcotest.(check bool) "entries enumerated" true (List.length (Ll1.entries table) >= 4)

let test_ll1_conflict () =
  (* S -> 'a' | 'a' 'b' is not LL(1). *)
  let ambiguous =
    Cfg.make ~start:"s"
      [ { Cfg.lhs = "s"; rhs = [ Cfg.T 'a' ] }; { Cfg.lhs = "s"; rhs = [ Cfg.T 'a'; Cfg.T 'b' ] } ]
  in
  match Ll1.build ambiguous with
  | Ok _ -> Alcotest.fail "conflict not detected"
  | Error c ->
    Alcotest.(check string) "conflicting nonterminal" "s" c.nonterminal;
    Alcotest.(check (option char)) "conflicting lookahead" (Some 'a') c.lookahead

let test_left_recursion_conflict () =
  (* Left recursion is never LL(1). *)
  let lrec =
    Cfg.make ~start:"e"
      [ { Cfg.lhs = "e"; rhs = [ Cfg.N "e"; Cfg.T '+' ] }; { Cfg.lhs = "e"; rhs = [ Cfg.T 'n' ] } ]
  in
  match Ll1.build lrec with
  | Ok _ -> Alcotest.fail "left recursion not rejected"
  | Error _ -> ()

let test_json_grammar_analysis () =
  let a = Analysis.analyze Grammars.json in
  Alcotest.(check bool) "ws nullable" true (Analysis.nullable a "ws");
  Alcotest.(check bool) "value not nullable" false (Analysis.nullable a "value");
  let first_value = Analysis.first a "value" in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "FIRST(value) has %C" c) true
        (Charset.mem c first_value))
    [ '{'; '['; '"'; '-'; '0'; '9'; 't'; 'f'; 'n' ];
  Alcotest.(check bool) "FIRST(value) lacks '}'" false (Charset.mem '}' first_value);
  Alcotest.(check bool) "EOF follows the start symbol" true
    (Analysis.follow_eof a "json")

let prop_table_entries_consistent =
  (* Every enumerated cell must round-trip through lookup. *)
  QCheck.Test.make ~name:"Ll1.entries agrees with Ll1.lookup" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun table ->
          List.for_all
            (fun (nt, lookahead, production_index) ->
              let found =
                match lookahead with
                | Some c -> Ll1.lookup table nt c
                | None -> Ll1.lookup_eof table nt
              in
              match found with
              | Some p -> Cfg.production_index (Ll1.grammar table) p = production_index
              | None -> false)
            (Ll1.entries table))
        [ Grammars.arith_table; Grammars.dyck_table; Grammars.json_table ])

(* {1 Driver} *)

let test_driver_accepts () =
  List.iter
    (fun input ->
      if not (Subject.accepts Grammars.table_expr input) then
        Alcotest.failf "table-expr should accept %S" input)
    [ "1"; "+1"; "-1"; "12"; "1+1"; "(2-94)"; "((3))"; "1+2-3" ]

let test_driver_rejects () =
  List.iter
    (fun input ->
      match (Subject.run Grammars.table_expr input).Runner.verdict with
      | Runner.Rejected _ -> ()
      | v ->
        Alcotest.failf "table-expr should reject %S but %a" input Runner.pp_verdict v)
    [ ""; "A"; "("; "1)"; "()"; "1+"; "+" ]

let gen_any_string =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 12)
    (QCheck.Gen.oneof
       [ QCheck.Gen.oneofl [ '('; ')'; '+'; '-'; '5'; '0' ]; QCheck.Gen.printable ])

let prop_driver_matches_recursive_descent =
  QCheck.Test.make
    ~name:"table-driven and recursive-descent parsers agree on every string"
    ~count:1000 gen_any_string
    (fun input ->
      let rd = Subject.accepts (Pdf_subjects.Catalog.find "expr") input in
      let tbl = Subject.accepts Grammars.table_expr input in
      rd = tbl)

let prop_naive_driver_same_language =
  QCheck.Test.make
    ~name:"instrumentation mode does not change the accepted language"
    ~count:500 gen_any_string
    (fun input ->
      Subject.accepts Grammars.table_expr input
      = Subject.accepts Grammars.table_expr_naive input)

let test_json_table_builds () =
  Alcotest.(check bool) "hundreds of productions" true
    (List.length (Cfg.productions Grammars.json) > 200);
  Alcotest.(check bool) "hundreds of table cells" true
    (List.length (Ll1.entries Grammars.json_table) > 300)

let test_json_table_agrees () =
  let rd = Pdf_subjects.Catalog.find "json" in
  List.iter
    (fun input ->
      Alcotest.(check bool)
        (Printf.sprintf "table-json agrees on %S" input)
        (Subject.accepts rd input)
        (Subject.accepts Grammars.table_json input))
    [ "1"; "-2.5e3"; "[]"; "[1, 2]"; "{\"k\": true}"; "\"s\\n\""; "null";
      "true"; "false"; "tru"; "{\"a\":[{},[false]]}"; "[1,]"; ""; "1.";
      " 5 "; "\"\\u0041\""; "{"; "[1 2]" ]

let prop_json_table_accepts_rd_valid =
  (* Any input the recursive-descent JSON accepts (sans context-sensitive
     surrogate pairs, which an LL(1) grammar cannot express) must be
     accepted by the table parser. *)
  QCheck.Test.make ~name:"table json accepts rd-valid inputs" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Rng.make seed in
      let buf = Buffer.create 32 in
      let rec value depth =
        match (if depth > 2 then Rng.int rng 4 else Rng.int rng 6) with
        | 0 -> Buffer.add_string buf (string_of_int (Rng.int rng 100))
        | 1 -> Buffer.add_string buf "\"s\""
        | 2 -> Buffer.add_string buf (Rng.choose rng [| "true"; "false"; "null" |])
        | 3 -> Buffer.add_string buf (Printf.sprintf "-%d.5e%d" (Rng.int rng 9) (Rng.int rng 9))
        | 4 ->
          Buffer.add_char buf '[';
          let count = Rng.int rng 3 in
          for i = 0 to count - 1 do
            if i > 0 then Buffer.add_char buf ',';
            value (depth + 1)
          done;
          Buffer.add_char buf ']'
        | _ ->
          Buffer.add_char buf '{';
          let count = Rng.int rng 3 in
          for i = 0 to count - 1 do
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Printf.sprintf "\"k%d\":" i);
            value (depth + 1)
          done;
          Buffer.add_char buf '}'
      in
      value 0;
      Subject.accepts Grammars.table_json (Buffer.contents buf))

let test_dyck_table_driver () =
  let subject =
    Driver.subject ~name:"table-dyck-test" ~description:"test" Grammars.dyck_table
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check bool) (Printf.sprintf "dyck %S" input) expected
        (Subject.accepts subject input))
    [ ("", true); ("()", true); ("([{<>}])", true); ("(", false); (")(", false) ]

let test_table_coverage_modes () =
  (* Table-element mode registers many more sites (the cells). *)
  let code_sites = Pdf_instr.Site.site_count Grammars.table_expr_naive.Subject.registry in
  let cell_sites = Pdf_instr.Site.site_count Grammars.table_expr.Subject.registry in
  Alcotest.(check bool) "cells add sites" true (cell_sites > code_sites + 10)

let test_section_7_1_prediction () =
  (* The paper's §7.1 claim, measured: with table-element coverage and
     diagnostics the search works; out of the box it stalls. *)
  let fuzz subject =
    let r =
      Pdf_core.Pfuzzer.fuzz
        { Pdf_core.Pfuzzer.default_config with max_executions = 4000 }
        subject
    in
    List.length r.valid_inputs
  in
  let guided = fuzz Grammars.table_expr in
  let naive = fuzz Grammars.table_expr_naive in
  Alcotest.(check bool)
    (Printf.sprintf "guided (%d) finds several times naive (%d)" guided naive)
    true
    (guided >= 3 * max naive 1)

(* {1 Pinned observations}

   The driver's observations (verdict with its reject string, comparison
   log, coverage, frame log) over a fixed input set, per table subject,
   as digests. They were recorded from the driver that looked its frame
   and cell sites up by key on every step and formatted its messages per
   rejection, so resolving those once must reproduce them exactly. *)

let kind_text = function
  | Comparison.Char_eq c -> Printf.sprintf "eq %C" c
  | Comparison.Char_range (lo, hi) -> Printf.sprintf "range %C %C" lo hi
  | Comparison.Char_set (set, label) ->
    Printf.sprintf "set %S %S" label (String.of_seq (List.to_seq (Charset.to_list set)))
  | Comparison.Str_eq { expected; offset } -> Printf.sprintf "str %S %d" expected offset

let observation_text (r : Runner.run) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%S %s %b %d\n" r.input
    (Format.asprintf "%a" Runner.pp_verdict r.verdict)
    r.eof_access r.max_depth;
  Array.iter
    (fun (c : Comparison.t) ->
      Printf.bprintf b "c %d %d %s %b %d\n" c.trace_pos c.index (kind_text c.kind)
        c.result c.stack_depth)
    r.comparisons;
  Array.iter (Printf.bprintf b "u %d\n") r.touched;
  Array.iter (Printf.bprintf b "t %d\n") r.trace;
  Array.iter
    (function
      | Pdf_instr.Frame.Enter { site; pos } ->
        Printf.bprintf b "e %s %d\n" (Pdf_instr.Site.name site) pos
      | Pdf_instr.Frame.Exit { pos } -> Printf.bprintf b "x %d\n" pos)
    r.frames;
  Buffer.contents b

(* Hand-written inputs, then 80 seeded strings of up to ten pieces drawn
   from an alphabet that reaches every table row. *)
let pinned_inputs fixed alphabet =
  let rng = Rng.make 30 in
  let drawn =
    List.init 80 (fun _ ->
        String.concat "" (List.init (Rng.int rng 11) (fun _ -> Rng.choose rng alphabet)))
  in
  fixed @ drawn

let expr_inputs =
  pinned_inputs
    [ ""; "1"; "+1"; "-12"; "1+2-3"; "(2-94)"; "((3))"; "("; "1)"; "()"; "1+"; "A"; "1 2" ]
    [| "("; ")"; "+"; "-"; "0"; "7"; "42"; " "; "x" |]

let json_inputs =
  pinned_inputs
    [ ""; "1"; "-2.5e3"; "[]"; "[1, 2]"; "{\"k\": true}"; "\"s\\n\""; "null"; "tru";
      "{\"a\":[{},[false]]}"; "[1,]"; "1."; " 5 "; "\"\\u0041\""; "{"; "[1 2]" ]
    [| "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "u"; "1"; "0"; "-"; "."; "e"; "+";
       "true"; "fal"; "null"; " "; "x" |]

let dyck_inputs =
  pinned_inputs
    [ ""; "()"; "([{<>}])"; "("; ")("; "[}"; "<<>>x" ]
    [| "("; ")"; "["; "]"; "{"; "}"; "<"; ">"; "x" |]

let dyck_subject = Driver.subject ~name:"table-dyck" ~description:"test" Grammars.dyck_table

let pinned =
  [
    (Grammars.table_expr, expr_inputs, "08109e53a5d7d4b258322aef91b69782");
    (Grammars.table_expr_naive, expr_inputs, "595ed56d278681b2d9b5680377accc2b");
    (Grammars.table_json, json_inputs, "e1e2602b75047aece0c463d31430b06a");
    (dyck_subject, dyck_inputs, "54d8541fe8d1c8f71ab60e01ca9a9f8e");
  ]

let test_pinned_observations () =
  List.iter
    (fun ((s : Subject.t), inputs, expected) ->
      let text =
        String.concat ""
          (List.map
             (fun input ->
               observation_text (Subject.run ~track_trace:true ~track_frames:true s input))
             inputs)
      in
      Alcotest.(check string) (s.name ^ " observation digest") expected
        (Digest.to_hex (Digest.string text)))
    pinned

let () =
  Alcotest.run "pdf_tables"
    [
      ( "cfg",
        [
          Alcotest.test_case "validation" `Quick test_cfg_validation;
          Alcotest.test_case "accessors" `Quick test_cfg_accessors;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "nullable" `Quick test_nullable;
          Alcotest.test_case "first" `Quick test_first;
          Alcotest.test_case "follow" `Quick test_follow;
          Alcotest.test_case "first_of_rhs" `Quick test_first_of_rhs;
          Alcotest.test_case "json grammar analysis" `Quick test_json_grammar_analysis;
        ] );
      ( "ll1",
        [
          Alcotest.test_case "table construction" `Quick test_ll1_build;
          Alcotest.test_case "conflict detection" `Quick test_ll1_conflict;
          Alcotest.test_case "left recursion rejected" `Quick test_left_recursion_conflict;
          qtest prop_table_entries_consistent;
        ] );
      ( "driver",
        [
          Alcotest.test_case "accepts" `Quick test_driver_accepts;
          Alcotest.test_case "rejects" `Quick test_driver_rejects;
          Alcotest.test_case "dyck table" `Quick test_dyck_table_driver;
          Alcotest.test_case "json table builds" `Quick test_json_table_builds;
          Alcotest.test_case "json table agrees with rd" `Quick test_json_table_agrees;
          qtest prop_json_table_accepts_rd_valid;
          Alcotest.test_case "coverage modes" `Quick test_table_coverage_modes;
          Alcotest.test_case "section 7.1 prediction" `Quick test_section_7_1_prediction;
          qtest prop_driver_matches_recursive_descent;
          qtest prop_naive_driver_same_language;
          Alcotest.test_case "observations pinned" `Quick test_pinned_observations;
        ] );
    ]
