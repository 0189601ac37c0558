module Subject = Pdf_subjects.Subject
module Catalog = Pdf_subjects.Catalog
module Token = Pdf_subjects.Token
module Runner = Pdf_instr.Runner
module Rng = Pdf_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let accepts name input = Subject.accepts (Catalog.find name) input
let verdict name input = (Subject.run (Catalog.find name) input).Runner.verdict

let check_accepts name cases () =
  List.iter
    (fun input ->
      if not (accepts name input) then
        Alcotest.failf "%s should accept %S (%s)" name input
          (Format.asprintf "%a" Runner.pp_verdict (verdict name input)))
    cases

let check_rejects name cases () =
  List.iter
    (fun input ->
      match verdict name input with
      | Runner.Rejected _ -> ()
      | v ->
        Alcotest.failf "%s should reject %S but %a" name input Runner.pp_verdict v)
    cases

(* {1 Acceptance tables} *)

let expr_valid = [ "1"; "11"; "+1"; "-1"; "1+1"; "1-1"; "(1)"; "(2-94)"; "((3))"; "1+2-3"; "-(4)"; "(1)+(2)" ]
let expr_invalid = [ ""; "A"; "("; ")"; "1)"; "()"; "1+"; "+"; "1 1"; "2-"; "(2-94"; "1a" ]

let paren_valid = [ "()"; "[]"; "{}"; "<>"; "()[]"; "([{<>}])"; "(()())"; "<<>>" ]
let paren_invalid = [ ""; "("; ")"; ")("; "(]"; "([)]"; "a"; "() " ]

let ini_valid =
  [ "key=value"; "key = value"; "[section]"; "[]"; "[s]\nk=v"; "; comment";
    "# comment"; ""; "\n\n"; "  k = v  "; "k.x-y_z=1"; "[a]\n;c\nk=v\n" ]

let ini_invalid = [ "["; "[x"; "[x\n]"; "=v"; "key"; "key value"; "*k=v"; "k\n=v" ]

let csv_valid =
  [ "a,b,c"; "a,b\nc,d"; ""; ","; "\"quoted\""; "\"with,comma\",x";
    "\"esc\"\"aped\""; "a,\nb,"; "x\n"; " " ]

let csv_invalid = [ "\""; "\"unterminated"; "a\"b"; "\"q\"x" ]

let json_valid =
  [ "1"; "-2.5"; "1e9"; "-0.5E-3"; "\"\""; "\"abc\""; "\"\\n\\t\\\"\"";
    "true"; "false"; "null"; "[]"; "[1,2,3]"; "{}"; "{\"k\":1}";
    "{\"a\":[true,null],\"b\":{\"c\":\"\"}}"; " 1 "; "\t[ 1 , 2 ]\n";
    "\"\\u0041\""; "\"\\ud834\\udd1e\"" ]

let json_invalid =
  [ ""; "tru"; "truex"; "nul"; "[1,]"; "[,1]"; "{"; "{\"k\":}"; "{k:1}";
    "01x"; "-"; "1."; "1e"; "\"unterminated"; "\"\\q\""; "\"\\u12g4\"";
    "\"\\ud834\""; "\"\\ud834\\u0041\""; "1 2"; "\"ctrl\x01\"" ]

let tinyc_valid =
  [ ";"; "a=1;"; "{}"; "{a=1;b=2;}"; "a=b=3;"; "a<2;"; "1+2-3;";
    "if(a<2)b=1;"; "if(a<2)b=1;else b=2;"; "if(1)if(0);else;";
    "while(a<0)b=1;"; "while(0);"; "do a=1; while(a<1);"; "(1);"; "a=(b)+1;" ]

let tinyc_invalid =
  [ ""; "a"; "a=1"; "ab=1;"; "if;"; "if(a<2)"; "while;"; "do a=1;";
    "do a=1; while(a<1)"; "a=;"; "{a=1;"; "1++;"; "=1;"; "a==1;"; "9=a;" ]

let tinyc_hangs = [ "while(9);"; "do;while(1);" ]

let mjs_valid =
  [ "x;"; "1;"; "'s';"; "\"s\";"; "x = 1;"; "var x = 1;"; "let y;";
    "const z = 0;"; "if (x) y; else z;"; "while (x) { y; }";
    "do { x; } while (y);"; "for (;;) break;"; "for (var i = 0; i < 9; i++) x;";
    "for (x in y) z;"; "function f(a, b) { return a + b; }";
    "x = function () {};"; "try { x; } catch (e) {}";
    "try { x; } finally {}"; "switch (x) { case 1: break; default: y; }";
    "throw x;"; "x = y ? 1 : 2;"; "x = [1, 2, 3];"; "x = {a: 1, 'b': 2};";
    "x.y.z;"; "x[1];"; "f(1)(2);"; "new F();"; "typeof x;"; "delete x.y;";
    "void 0;"; "x instanceof Object;"; "'a' in b;"; "x++;"; "--x;";
    "x <<= 2;"; "a >>>= 1;"; "x === null;"; "y !== undefined;"; "NaN;";
    "JSON.stringify(x);"; "x.indexOf(y);"; "x.length;"; "debugger;";
    "with (x) y;"; "0x1F;"; "1.5e-3;"; "x && y || z;"; "~x ^ y & z | w;" ]

let mjs_invalid =
  [ ""; "x"; "var;"; "var x = ;"; "if x) y;"; "while () x;"; "function () {};";
    "f(;"; "x = {a };"; "[1, ;"; "'unterminated"; "\"bad\\q\";"; "1.x;";
    "0x;"; "1e;"; "x..y;"; "try { x; }"; "do x; while y;"; "switch x {}";
    "x ? 1;"; "@;"; "x = } ;" ]

(* {1 Tokenizers} *)

let check_tokens name input expected () =
  let subj = Catalog.find name in
  Alcotest.(check (slist string compare)) "token tags" expected (subj.tokenize input)

(* {1 Generators: random valid inputs are accepted} *)

let gen_expr rng =
  let buf = Buffer.create 16 in
  let rec go depth =
    (match Rng.int rng 3 with
     | 0 -> Buffer.add_char buf (Char.chr (Char.code '0' + Rng.int rng 10))
     | 1 ->
       Buffer.add_char buf (if Rng.bool rng then '+' else '-');
       Buffer.add_char buf (Char.chr (Char.code '0' + Rng.int rng 10))
     | _ ->
       if depth < 3 then begin
         Buffer.add_char buf '(';
         go (depth + 1);
         Buffer.add_char buf ')'
       end
       else Buffer.add_char buf '7');
    if Rng.int rng 3 = 0 && depth < 4 then begin
      Buffer.add_char buf (if Rng.bool rng then '+' else '-');
      go (depth + 1)
    end
  in
  go 0;
  Buffer.contents buf

let gen_json rng =
  let buf = Buffer.create 32 in
  let rec value depth =
    match (if depth > 2 then Rng.int rng 4 else Rng.int rng 6) with
    | 0 -> Buffer.add_string buf (string_of_int (Rng.int rng 100))
    | 1 -> Buffer.add_string buf "\"s\""
    | 2 -> Buffer.add_string buf (Rng.choose rng [| "true"; "false"; "null" |])
    | 3 -> Buffer.add_string buf (Printf.sprintf "-%d.5e%d" (Rng.int rng 9) (Rng.int rng 9))
    | 4 ->
      Buffer.add_char buf '[';
      let n = Rng.int rng 3 in
      for i = 0 to n - 1 do
        if i > 0 then Buffer.add_char buf ',';
        value (depth + 1)
      done;
      Buffer.add_char buf ']'
    | _ ->
      Buffer.add_char buf '{';
      let n = Rng.int rng 3 in
      for i = 0 to n - 1 do
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"k%d\":" i);
        value (depth + 1)
      done;
      Buffer.add_char buf '}'
  in
  value 0;
  Buffer.contents buf

let gen_tinyc rng =
  let buf = Buffer.create 32 in
  let var () = Char.chr (Char.code 'a' + Rng.int rng 26) in
  let rec expr depth =
    if depth > 2 then Buffer.add_char buf (var ())
    else
      match Rng.int rng 4 with
      | 0 -> Buffer.add_char buf (var ())
      | 1 -> Buffer.add_string buf (string_of_int (Rng.int rng 100))
      | 2 ->
        expr (depth + 1);
        Buffer.add_char buf (if Rng.bool rng then '+' else '-');
        expr (depth + 1)
      | _ ->
        Buffer.add_char buf '(';
        expr (depth + 1);
        Buffer.add_char buf ')'
  in
  let rec stmt depth =
    if depth > 2 then Buffer.add_char buf ';'
    else
      match Rng.int rng 5 with
      | 0 ->
        Buffer.add_char buf (var ());
        Buffer.add_char buf '=';
        expr 1;
        Buffer.add_char buf ';'
      | 1 ->
        Buffer.add_string buf "if(";
        expr 1;
        Buffer.add_char buf '<';
        expr 1;
        Buffer.add_char buf ')';
        stmt (depth + 1)
      | 2 ->
        Buffer.add_string buf "while(0)";
        stmt (depth + 1)
      | 3 ->
        Buffer.add_char buf '{';
        for _ = 1 to Rng.int rng 3 do
          stmt (depth + 1)
        done;
        Buffer.add_char buf '}'
      | _ ->
        expr 1;
        Buffer.add_char buf ';'
  in
  stmt 0;
  Buffer.contents buf

let prop_generated_accepted name gen =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s accepts generated inputs" name)
    ~count:200 QCheck.small_int
    (fun seed ->
      let input = gen (Rng.make seed) in
      match verdict name input with
      | Runner.Accepted -> true
      | Runner.Hang -> QCheck.assume_fail () (* tinyc if(..) may loop *)
      | Runner.Rejected reason ->
        QCheck.Test.fail_reportf "%s rejected %S: %s" name input reason
      | Runner.Crash c ->
        QCheck.Test.fail_reportf "%s crashed on %S: %s" name input c.detail)

(* {1 Inventory shape (Tables 2-4)} *)

let test_inventories () =
  let count name = List.length (Catalog.find name).Subject.tokens in
  Alcotest.(check int) "json inventory (Table 2)" 12 (count "json");
  Alcotest.(check int) "tinyc inventory (Table 3)" 15 (count "tinyc");
  Alcotest.(check int) "mjs inventory (Table 4 shape)" 89 (count "mjs");
  let by_len name =
    let s = Catalog.find name in
    List.map
      (fun l -> (l, List.length (Token.of_length l s.Subject.tokens)))
      (Token.lengths s.Subject.tokens)
  in
  Alcotest.(check (list (pair int int)))
    "json token lengths" [ (1, 8); (2, 1); (4, 2); (5, 1) ] (by_len "json");
  Alcotest.(check (list (pair int int)))
    "tinyc token lengths" [ (1, 11); (2, 2); (4, 1); (5, 1) ] (by_len "tinyc")

let test_hangs () =
  List.iter
    (fun input ->
      match verdict "tinyc" input with
      | Runner.Hang -> ()
      | v -> Alcotest.failf "expected hang for %S, got %a" input Runner.pp_verdict v)
    tinyc_hangs

let test_catalog () =
  Alcotest.(check int) "five evaluation subjects" 5 (List.length Catalog.evaluation);
  Alcotest.(check int) "nine subjects in total" 9 (List.length Catalog.all);
  Alcotest.check_raises "unknown subject" Not_found (fun () ->
      ignore (Catalog.find "nope"))

(* "\xc3\x82" is how "\xc2" reads when UTF-8 is decoded as Latin-1 and
   encoded again: a "§" that went through that turns into "Â§". *)
let test_descriptions_not_double_encoded () =
  let double = "\xc3\x82" in
  List.iter
    (fun (s : Subject.t) ->
      let d = s.description in
      let found = ref false in
      for i = 0 to String.length d - String.length double do
        if String.sub d i (String.length double) = double then found := true
      done;
      if !found then Alcotest.failf "%s's description is double-encoded: %s" s.name d)
    Catalog.all

let test_tinyc_variants () =
  (* The three tinyc instances accept the same syntax... *)
  List.iter
    (fun input ->
      Alcotest.(check bool) (Printf.sprintf "tt accepts %S" input) true
        (accepts "tinyc-tt" input))
    [ "a=1;"; "if(a<2)b=1;"; "do a=1; while(a<1);" ];
  (* ...but the semantic variant rejects use-before-assignment (§7.3). *)
  Alcotest.(check bool) "sem rejects use of unassigned" true
    (match verdict "tinyc-sem" "g<5;" with Runner.Rejected _ -> true | _ -> false);
  Alcotest.(check bool) "sem accepts define-then-use" true (accepts "tinyc-sem" "{g=1;g<5;}");
  Alcotest.(check bool) "plain tinyc has no such check" true (accepts "tinyc" "g<5;")

let test_tinyc_tt_comparison_signal () =
  (* The token-taint variant reports the missing `while' of a do-statement
     as a substitutable comparison; the plain variant does not. *)
  let input = "do a=1; " in
  let run_plain = Subject.run (Catalog.find "tinyc") input in
  let run_tt = Subject.run (Catalog.find "tinyc-tt") input in
  let suggests_while (run : Runner.run) =
    Array.exists
      (fun (c : Pdf_instr.Comparison.t) ->
        match c.kind with
        | Pdf_instr.Comparison.Str_eq { expected = "while"; offset = 0 } -> true
        | _ -> false)
      run.comparisons
  in
  Alcotest.(check bool) "plain: no signal" false (suggests_while run_plain);
  Alcotest.(check bool) "tt: while suggested" true (suggests_while run_tt)

let test_json_utf16_blind_spot () =
  (* The \u escape path must emit no comparison events (implicit flow,
     §5.2): pFuzzer cannot learn the hex alphabet. *)
  let subj = Catalog.find "json" in
  let run = Subject.run subj "\"\\uZ\"" in
  Alcotest.(check bool) "rejected" true (not (Runner.accepted run));
  let has_hex_suggestion =
    Array.exists
      (fun (c : Pdf_instr.Comparison.t) -> c.index >= 3)
      run.comparisons
  in
  Alcotest.(check bool) "no comparison touches the hex digit" false has_hex_suggestion

(* {1 A rejected parse allocates nothing}

   A campaign rejects most of what it runs, so a rejection must cost no
   allocation: each reject message is built once with its exception and
   its verdict ([Ctx.rejection]), a keyword is compared in place as a
   span of the input, and every kind an event logs was built with its
   slot. The rejected inputs of a 2,000-execution campaign are replayed
   through one warmed context, as the campaign runs them ([Ctx.reset],
   then [Runner.run_in]). The five subjects that build no syntax tree
   allocate nothing per rejection, where a fresh exception and verdict
   cost 5 words. A tinyc or mjs parse allocates its parser state (5 and
   3 words), and tinyc the part of its syntax tree it built before
   rejecting: they measure 8.8 and 3.0 words, and their budgets have
   50% headroom, which a parse that still cut its tokens as arrays and
   built its keyword kinds and rejections (24.3 and 18.9 words) fails.
   The dev and the release profile measure the same, so one budget
   serves both. *)

let rejected_inputs (subject : Subject.t) =
  let inputs = ref [] in
  let on_execution (run : Runner.run) =
    match run.verdict with
    | Runner.Rejected _ -> inputs := run.input :: !inputs
    | Runner.Accepted | Runner.Hang | Runner.Crash _ -> ()
  in
  let config = { Pdf_core.Pfuzzer.default_config with max_executions = 2000 } in
  ignore (Pdf_core.Pfuzzer.fuzz ~on_execution config subject);
  Array.of_list (List.rev !inputs)

let words_per_rejection name =
  let subject = Catalog.find name in
  let inputs = rejected_inputs subject in
  let ctx = Pdf_instr.Ctx.make ~registry:subject.registry ~fuel:subject.fuel "" in
  let rejected = ref 0 in
  let replay () =
    for i = 0 to Array.length inputs - 1 do
      Pdf_instr.Ctx.reset ctx inputs.(i);
      match Runner.run_in ctx ~parse:subject.parse with
      | Runner.Rejected _ -> incr rejected
      | Runner.Accepted | Runner.Hang | Runner.Crash _ -> ()
    done
  in
  (* The first replay grows the context's buffers and builds the
     interned characters the inputs read. *)
  replay ();
  rejected := 0;
  let w0 = Gc.minor_words () in
  replay ();
  let w1 = Gc.minor_words () in
  Alcotest.(check int) (name ^ ": every replayed input is rejected again")
    (Array.length inputs) !rejected;
  (w1 -. w0) /. float_of_int (Array.length inputs)

let check_rejection_words name budget () =
  let words = words_per_rejection name in
  if words >= budget then
    Alcotest.failf "%s: %.2f minor words per rejected parse (budget %.2f)" name words
      budget

let suite name valid invalid =
  ( name,
    [
      Alcotest.test_case "accepts valid inputs" `Quick (check_accepts name valid);
      Alcotest.test_case "rejects invalid inputs" `Quick (check_rejects name invalid);
    ] )

let () =
  Alcotest.run "pdf_subjects"
    [
      suite "expr" expr_valid expr_invalid;
      suite "paren" paren_valid paren_invalid;
      suite "ini" ini_valid ini_invalid;
      suite "csv" csv_valid csv_invalid;
      suite "json" json_valid json_invalid;
      suite "tinyc" tinyc_valid tinyc_invalid;
      suite "mjs" mjs_valid mjs_invalid;
      ( "tokenizers",
        [
          Alcotest.test_case "expr" `Quick
            (check_tokens "expr" "(2-94)" [ "("; ")"; "-"; "number" ]);
          Alcotest.test_case "json" `Quick
            (check_tokens "json" "{\"k\": [true, -1]}"
               [ "{"; "}"; "["; "]"; ":"; ","; "-"; "number"; "string"; "true" ]);
          Alcotest.test_case "tinyc" `Quick
            (check_tokens "tinyc" "if(a<2)b=1;else while(0);"
               [ "if"; "("; ")"; "<"; "="; ";"; "else"; "while"; "identifier"; "number" ]);
          Alcotest.test_case "mjs keywords" `Quick
            (check_tokens "mjs" "x instanceof Object;"
               [ "identifier"; "instanceof"; "Object"; ";" ]);
          Alcotest.test_case "mjs longest-match ops" `Quick
            (check_tokens "mjs" "a>>>=1;" [ "identifier"; ">>>="; "number"; ";" ]);
          Alcotest.test_case "mjs members" `Quick
            (check_tokens "mjs" "JSON.stringify(x.length);"
               [ "JSON"; "."; "stringify"; "("; ")"; "identifier"; "length"; ";" ]);
        ] );
      ( "generators",
        [
          qtest (prop_generated_accepted "expr" gen_expr);
          qtest (prop_generated_accepted "json" gen_json);
          qtest (prop_generated_accepted "tinyc" gen_tinyc);
        ] );
      ( "rejections allocate nothing",
        List.map
          (fun (name, budget) ->
            Alcotest.test_case name `Quick (check_rejection_words name budget))
          [
            ("paren", 0.5); ("ini", 0.5); ("csv", 0.5); ("json", 0.5); ("expr", 0.5);
            ("tinyc", 13.0); ("mjs", 4.5);
          ] );
      ( "structure",
        [
          Alcotest.test_case "token inventories" `Quick test_inventories;
          Alcotest.test_case "tinyc hangs" `Quick test_hangs;
          Alcotest.test_case "catalog" `Quick test_catalog;
          Alcotest.test_case "descriptions are not double-encoded" `Quick
            test_descriptions_not_double_encoded;
          Alcotest.test_case "json UTF-16 blind spot" `Quick test_json_utf16_blind_spot;
          Alcotest.test_case "tinyc variants (7.2/7.3)" `Quick test_tinyc_variants;
          Alcotest.test_case "token-taint signal (7.2)" `Quick test_tinyc_tt_comparison_signal;
        ] );
    ]
