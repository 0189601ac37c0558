(* Tests for the correctness harness itself: oracle unit vectors, the
   shrinker, the producers, differential + invariant smoke passes over
   every seed subject, and — the part that proves the harness has teeth —
   mutation tests that inject a bug into a subject and require the
   differential driver to find it and shrink the counterexample to a
   handful of characters. *)

module Ctx = Pdf_instr.Ctx
module Subject = Pdf_subjects.Subject
module Oracle = Pdf_check.Oracle
module Producer = Pdf_check.Producer
module Shrink = Pdf_check.Shrink
module Differential = Pdf_check.Differential
module Invariants = Pdf_check.Invariants
module Harness = Pdf_check.Harness
module Rng = Pdf_util.Rng
module Runner = Pdf_instr.Runner
module Comparison = Pdf_instr.Comparison

let subject name =
  try Pdf_subjects.Catalog.find name
  with Not_found -> Alcotest.failf "no subject %S in the catalog" name

let oracle name =
  match Oracle.find name with
  | Some o -> o
  | None -> Alcotest.failf "no oracle %S" name

(* {1 Oracle unit vectors}

   Hand-picked inputs with known verdicts, independent of both the
   oracles and the subjects. Each is checked against the oracle *and*
   the instrumented subject, so a vector typo shows up as a double
   failure rather than a silent agreement. *)

let vectors =
  [
    ( "paren",
      [ "()"; "[]"; "<>"; "{}"; "([]{})"; "<<[()]>>"; "()()" ],
      [ ""; "("; ")"; "(]"; "([)]"; "()x"; "x"; "(()" ] );
    ( "expr",
      [ "1"; "42"; "1+2"; "-3"; "(1+2)"; "1+-2"; "(((7)))"; "10-2+3" ],
      [ ""; "+"; "1+"; "--1"; "(1"; "1)"; "a"; "1 + 2" ] );
    ( "ini",
      [ ""; "\n"; "; comment\n"; "# comment\n"; "[sec]\n"; "key=value\n";
        "[s]\nk=v\n"; "k.e-y_2=v\n"; "key = spaced\n";
        (* the final newline is optional, and a section header tolerates
           trailing junk on its line *)
        "key=v"; "[a]b\n" ],
      [ "[sec\n"; "=v\n"; "key\n"; "key!=v\n" ] );
    ( "csv",
      [ ""; "a"; "a,b"; "a,b\nc,d"; "\"a,b\""; "\"he said \"\"hi\"\"\"";
        "a,\nb,"; "\"\"" ],
      [ "\"a"; "\"a\"x"; "\"a\"\"" ] );
    ( "json",
      [ "1"; "-0.5"; "007"; "true"; "null"; "[]"; "[1,2]"; "{}";
        "{\"a\":1}"; "\"s\""; "\"\\u0041\""; "\"\\ud834\\udd1e\"";
        " [ 1 , { \"k\" : false } ] " ],
      [ ""; "tru"; "truely"; "[1,]"; "{\"a\":}"; "\"\\u12\""; "\"\\ud834\"";
        "\"a\nb\""; "01a"; "[1 2]" ] );
  ]

let test_oracle_vectors () =
  List.iter
    (fun (name, accepted, rejected) ->
      let o = oracle name and s = subject name in
      List.iter
        (fun input ->
          Alcotest.(check bool)
            (Printf.sprintf "%s oracle accepts %S" name input)
            true (o.Oracle.accepts input);
          Alcotest.(check bool)
            (Printf.sprintf "%s subject accepts %S" name input)
            true (Subject.accepts s input))
        accepted;
      List.iter
        (fun input ->
          Alcotest.(check bool)
            (Printf.sprintf "%s oracle rejects %S" name input)
            false (o.Oracle.accepts input);
          Alcotest.(check bool)
            (Printf.sprintf "%s subject rejects %S" name input)
            false (Subject.accepts s input))
        rejected)
    vectors

(* {1 Shrinker} *)

let test_shrink_units () =
  let contains c s = String.contains s c in
  Alcotest.(check string) "single relevant char survives" "x"
    (Shrink.shrink (contains 'x') "aaxbb");
  Alcotest.(check string) "already minimal" "x" (Shrink.shrink (contains 'x') "x");
  Alcotest.(check string) "empty stays empty"
    "" (Shrink.shrink (fun _ -> true) "");
  (* A length predicate shrinks to exactly the threshold, all-canonical. *)
  let s = Shrink.shrink (fun s -> String.length s >= 3) "kqzwvut" in
  Alcotest.(check int) "length predicate hits the bound" 3 (String.length s);
  (* Pair predicate: both halves must survive chunk deletion. *)
  let p s = contains '(' s && contains ')' s in
  let s = Shrink.shrink p "xx(yyy)zz" in
  Alcotest.(check bool) "predicate preserved" true (p s);
  Alcotest.(check bool) "shrunk to the two relevant chars"
    true (String.length s = 2)

let test_shrink_preserves_predicate () =
  (* Random predicates over random strings: the result must satisfy the
     predicate and be no longer than the input. *)
  let rng = Rng.make 11 in
  for _ = 1 to 50 do
    let n = Rng.int rng 20 in
    let input = String.init n (fun _ -> Rng.printable rng) in
    let c = Rng.printable rng in
    let p s = not (String.contains s c) in
    if p input then begin
      let s = Shrink.shrink p input in
      Alcotest.(check bool) "predicate holds on result" true (p s);
      Alcotest.(check bool) "no longer than input" true
        (String.length s <= String.length input)
    end
  done

(* {1 Producers} *)

let test_producers () =
  let rng = Rng.make 3 in
  List.iter
    (fun (o : Oracle.t) ->
      let valids = ref 0 and invalids = ref 0 in
      for _ = 1 to 40 do
        (match Producer.valid rng o with
         | Some s ->
           incr valids;
           Alcotest.(check bool)
             (Printf.sprintf "%s producer valid %S accepted" o.name s)
             true (o.accepts s)
         | None -> ());
        match Producer.invalid rng o with
        | Some s ->
          incr invalids;
          Alcotest.(check bool)
            (Printf.sprintf "%s producer invalid %S rejected" o.name s)
            false (o.accepts s)
        | None -> ()
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s producer yields valid inputs" o.name)
        true (!valids > 10);
      Alcotest.(check bool)
        (Printf.sprintf "%s producer yields invalid inputs" o.name)
        true (!invalids > 10))
    Oracle.all

(* {1 Differential + invariant smoke}

   Small budgets: the full-size pass is [pfuzzer check]'s job; here we
   only need every subject wired up and agreeing. *)

let test_differential_smoke () =
  List.iter
    (fun (s : Subject.t) ->
      let o = oracle s.name in
      let r = Differential.run ~execs:400 ~seed:7 s o in
      Alcotest.(check int)
        (Printf.sprintf "%s: no disagreements" s.name)
        0
        (List.length r.disagreements);
      Alcotest.(check bool)
        (Printf.sprintf "%s: inputs were actually checked" s.name)
        true (r.inputs_checked > 20))
    (Harness.checked_subjects ())

let test_invariants_smoke () =
  List.iter
    (fun (s : Subject.t) ->
      let r = Invariants.run ~execs:150 ~seed:5 s in
      Alcotest.(check int)
        (Printf.sprintf "%s: seven invariants evaluated" s.name)
        7
        (List.length r.checks);
      if not (Invariants.ok r) then
        Alcotest.failf "%s" (Format.asprintf "%a" Invariants.pp_report r))
    (Harness.checked_subjects ())

(* {1 Mutation tests}

   Inject a bug into a seed subject and require the differential driver
   to (a) notice and (b) shrink the witness to at most 8 characters —
   the acceptance bar for the harness being useful, not just green. *)

let check_finds_bug ~name ~max_len buggy oracle_name =
  let o = oracle oracle_name in
  let r = Differential.run ~execs:1500 ~seed:1 buggy o in
  if r.disagreements = [] then
    Alcotest.failf "%s: differential driver missed the injected bug" name;
  List.iter
    (fun (d : Differential.disagreement) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: shrunk %S no longer than original %S" name
           d.shrunk d.input)
        true
        (String.length d.shrunk <= String.length d.input))
    r.disagreements;
  let best =
    List.fold_left
      (fun acc (d : Differential.disagreement) ->
        min acc (String.length d.shrunk))
      max_int r.disagreements
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: a counterexample shrank to <= %d chars (got %d)"
       name max_len best)
    true (best <= max_len)

let test_mutation_spurious_reject () =
  (* The subject wrongly rejects any input mentioning '<'; minimal
     witness is "<>" (a lone '<' is rejected by both sides). *)
  let base = subject "paren" in
  let buggy =
    {
      base with
      name = "paren(buggy-reject)";
      parse =
        (fun ctx ->
          base.parse ctx;
          if String.contains (Ctx.input ctx) '<' then
            Ctx.reject ctx "injected bug");
    }
  in
  check_finds_bug ~name:"spurious-reject" ~max_len:8 buggy "paren"

let test_mutation_accept_everything () =
  (* The subject swallows its own parse errors — the classic forgotten
     exit code. Minimal witness is any 1-char invalid input. *)
  let base = subject "expr" in
  let buggy =
    {
      base with
      name = "expr(buggy-accept)";
      parse =
        (fun ctx -> try base.parse ctx with Ctx.Reject _ -> ());
    }
  in
  check_finds_bug ~name:"accept-everything" ~max_len:8 buggy "expr"

let test_mutation_object_slip () =
  (* The subject chokes on every object member — any json containing a
     ':' is wrongly rejected. The minimal witness is a small object like
     {"":0}, which exercises shrinking through the json oracle's richer
     language (a bare deletion pass cannot reach it; whole-chunk deletions
     must cooperate). *)
  let base = subject "json" in
  let buggy =
    {
      base with
      name = "json(buggy-object)";
      parse =
        (fun ctx ->
          base.parse ctx;
          if String.contains (Ctx.input ctx) ':' then
            Ctx.reject ctx "injected bug");
    }
  in
  check_finds_bug ~name:"object-slip" ~max_len:8 buggy "json"

(* {1 Golden observations}

   paren, ini, csv, json and expr each have exactly one parser, so
   nothing is left to compare it against at run time: its observations
   are pinned instead. The digest covers a run's whole observation —
   input, verdict with reject string, comparison log, coverage, trace,
   touched order, EOF access, stack depth and frames — over a fixed
   corpus: a few hand-written inputs per subject plus 50
   [Producer.valid] and 50 [Producer.invalid] draws. The expected
   digests were recorded from the first, unstaged parsers; the staged
   continuation-passing parsers that followed them and the direct-style
   parsers that replaced those reproduced every digest, so they witness
   that neither rewrite changed an observation. The case keeps the name
   it had while these five subjects were machine-form recognizers. The
   text form avoids [Marshal], whose output depends on physical sharing
   (slot comparison kinds are shared, per-call ones are not). *)

let fixed_inputs = function
  | "paren" ->
    [ "([]{})"; "<<[()]>>"; "()()"; "((((((()))))))"; "([{<>}])([{<>}])" ]
  | "expr" -> [ "1+2"; "10-2+3"; "(((7)))"; "-3+42-17+(9-(8))"; "123456789" ]
  | "ini" ->
    [
      "[s]\nk=v\n"; "key = spaced value here\n";
      "; comment line\n[sec]\nk.e-y_2=value\nanother=1\n";
    ]
  | "csv" ->
    [
      "a,b\nc,d"; "\"he said \"\"hi\"\"\",x,y\nlong,bare,fields,here"; "a,\nb,";
    ]
  | "json" ->
    [
      "{\"a\":1}"; " [ 1 , { \"k\" : false } ] ";
      "{\"key\":[1,2,3,\"str\",true,null],\"n\":-1.5e3}";
    ]
  | name -> Alcotest.failf "no golden corpus for %s" name

let golden_corpus name =
  let o = oracle name in
  let rng = Rng.make 2019 in
  let draw f = List.filter_map (fun _ -> f rng o) (List.init 50 Fun.id) in
  let valid = draw Producer.valid in
  let invalid = draw Producer.invalid in
  fixed_inputs name @ valid @ invalid

let kind_text = function
  | Comparison.Char_eq c -> Printf.sprintf "eq %C" c
  | Comparison.Char_range (lo, hi) -> Printf.sprintf "range %C %C" lo hi
  | Comparison.Char_set (set, label) ->
    Printf.sprintf "set %S %S" label
      (String.of_seq (List.to_seq (Pdf_util.Charset.to_list set)))
  | Comparison.Str_eq { expected; offset } ->
    Printf.sprintf "str %S %d" expected offset

let observation_text (r : Runner.run) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%S %s %b %d\n" r.input
    (Format.asprintf "%a" Runner.pp_verdict r.verdict)
    r.eof_access r.max_depth;
  Array.iter
    (fun (c : Comparison.t) ->
      Printf.bprintf b "c %d %d %s %b %d\n" c.trace_pos c.index
        (kind_text c.kind) c.result c.stack_depth)
    r.comparisons;
  List.iter (Printf.bprintf b "v %d\n") (Pdf_instr.Coverage.to_list r.coverage);
  Array.iter (Printf.bprintf b "t %d\n") r.trace;
  Array.iter (Printf.bprintf b "u %d\n") r.touched;
  Array.iter
    (function
      | Pdf_instr.Frame.Enter { site; pos } ->
        Printf.bprintf b "e %s %d\n" (Pdf_instr.Site.name site) pos
      | Pdf_instr.Frame.Exit { pos } -> Printf.bprintf b "x %d\n" pos)
    r.frames;
  Buffer.contents b

let golden =
  [
    ("paren", 105, "965fd2292a839d0a935673c55023a83a");
    ("ini", 103, "d6513aba0bbb5f01037f1e0d185e9a12");
    ("csv", 72, "570f0ed817707e8b9fc08ab6faa10d88");
    ("json", 103, "1c8e80171d72f8ed28381089d48fcf97");
    ("expr", 105, "5aa68cfdbf98875a1f1762eb011bb93b");
  ]

let test_golden_observations () =
  List.iter
    (fun (name, count, expected) ->
      let s = subject name in
      let inputs = golden_corpus name in
      Alcotest.(check int) (name ^ " corpus size") count (List.length inputs);
      let text =
        String.concat ""
          (List.map
             (fun input ->
               observation_text
                 (Subject.run ~track_trace:true ~track_frames:true s input))
             inputs)
      in
      Alcotest.(check string)
        (name ^ " observation digest")
        expected
        (Digest.to_hex (Digest.string text)))
    golden

(* {2 Direct-style subjects}

   tinyc (with its two variants) and mjs parse in direct style, with
   one frame per nonterminal call, so their stack depths and frame
   events are pinned the same way, over hand-written accepted and
   rejected inputs, a hang, and 60 seeded strings of one to twelve
   tokens drawn from the subject's own token alphabet. The digests were
   recorded from the parsers that still wrapped each frame's body in a
   closure. *)

let direct_inputs = function
  | "tinyc" ->
    ( [
        "a=1;"; "{ i=1; while (i<100) i=i+i; }"; "if (a<b) c=1; else c=2;";
        "do a=a+1; while (a<5);"; "{ a=(1+2)-3; b=a<2; ; }"; "a=b=c=7;";
        "if (1) if (0) a=1; else { b=2; }"; "";
        "a="; "if ("; "1=2;"; "xyz;"; "{ a=1;"; "a=1; b"; "#"; "do a; b";
        "while(1);";
      ],
      [
        "a"; "b"; "7"; "42"; "<"; "+"; "-"; ";"; "="; "{"; "}"; "("; ")";
        "if"; "else"; "while"; "do"; " ";
      ] )
  | "mjs" ->
    ( [
        "var x = 1;"; "function f(a, b) { return a + b; }";
        "if (x) { y = [1, 2, {a: 3}]; } else z = 'str';";
        "for (var i = 0; i < 10; i++) { continue; }";
        "switch (x) { case 1: break; default: y = 2; }";
        "try { throw 1; } catch (e) { } finally { }";
        "x = JSON.stringify(y).length;"; "do x++; while (x < 3);";
        "a = b ? c : d >>>= 0x1f;"; "new Object(1.5e3)[\"k\"];";
        "for (k in o) with (o) delete k;"; "";
        "var;"; "function ("; "x = ;"; "'unterminated"; "0x;"; "{"; "a.1;";
        "try {}"; "1.e;"; "\"a\\q\";";
      ],
      [
        "x"; "1"; "'s'"; "var"; "function"; "if"; "else"; "for"; "while";
        "return"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "."; "="; "+";
        "=="; "?"; ":"; "length"; " ";
      ] )
  | name -> Alcotest.failf "no direct-style corpus for %s" name

let direct_corpus name =
  let fixed, alphabet = direct_inputs name in
  let alphabet = Array.of_list alphabet in
  let rng = Rng.make 2019 in
  let draw () =
    String.concat ""
      (List.init (1 + Rng.int rng 12) (fun _ ->
           alphabet.(Rng.int rng (Array.length alphabet))))
  in
  fixed @ List.init 60 (fun _ -> draw ())

let direct_golden =
  [
    ("tinyc", "tinyc", 77, "5bb4fbeec51189780eab0610a0b6cefb");
    ("tinyc-tt", "tinyc", 77, "c1650584495a1b4910fccbb9d0a082cc");
    ("tinyc-sem", "tinyc", 77, "e404526cec12221e2880af0e5498b982");
    ("mjs", "mjs", 82, "c25cd6b706582ba467bcbde86e358cb8");
  ]

let test_direct_golden_observations () =
  List.iter
    (fun (name, corpus, count, expected) ->
      let s = subject name in
      let inputs = direct_corpus corpus in
      Alcotest.(check int) (name ^ " corpus size") count (List.length inputs);
      let text =
        String.concat ""
          (List.map
             (fun input ->
               observation_text
                 (Subject.run ~track_trace:true ~track_frames:true s input))
             inputs)
      in
      Alcotest.(check string)
        (name ^ " observation digest")
        expected
        (Digest.to_hex (Digest.string text)))
    direct_golden

(* {1 Harness aggregation} *)

let test_harness_runs () =
  let subjects = Harness.checked_subjects () in
  Alcotest.(check int) "five subjects have oracles" 5 (List.length subjects);
  let outcome = Harness.run ~execs:300 ~seed:2 [ subject "paren" ] in
  Alcotest.(check bool) "paren harness passes" true (Harness.ok outcome)

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "unit vectors (oracle and subject)" `Quick
            test_oracle_vectors;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "unit cases" `Quick test_shrink_units;
          Alcotest.test_case "predicate preserved on random inputs" `Quick
            test_shrink_preserves_predicate;
        ] );
      ( "producer",
        [ Alcotest.test_case "valid/invalid as labelled" `Quick test_producers ] );
      ( "differential",
        [
          Alcotest.test_case "seed subjects agree with oracles" `Quick
            test_differential_smoke;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "all invariants hold on seed subjects" `Slow
            test_invariants_smoke;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "spurious reject is found and shrunk" `Quick
            test_mutation_spurious_reject;
          Alcotest.test_case "accept-everything is found and shrunk" `Quick
            test_mutation_accept_everything;
          Alcotest.test_case "object slip is found and shrunk" `Quick
            test_mutation_object_slip;
        ] );
      ( "golden",
        [
          Alcotest.test_case "machine-form observations pinned" `Quick
            test_golden_observations;
          Alcotest.test_case "direct-style observations pinned" `Quick
            test_direct_golden_observations;
        ] );
      ( "harness",
        [ Alcotest.test_case "aggregation and subject set" `Quick test_harness_runs ] );
    ]
