(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, runs the ablation studies from DESIGN.md, and
   measures instrumentation overhead with Bechamel.

     dune exec bench/main.exe                 # everything, default budget
     dune exec bench/main.exe -- --quick      # small budgets (seconds)
     dune exec bench/main.exe -- figure-2     # one section
     dune exec bench/main.exe -- --budget 10000000 --seeds 1,2,3
     dune exec bench/main.exe -- micro --quick --out micro.json

   Sections: table-1 table-2 table-3 table-4 figure-2 figure-3 headline
             ablation-dyck ablation-heuristic ablation-grammar
             ablation-tables ablation-token-taints ablation-semantics
             pipeline micro incremental obs dist loop

   --out FILE dumps the machine-readable results of the sections that
   produce them (micro, incremental, obs) as JSON — the CI bench smoke
   step uploads this as an artifact. --trace FILE writes a merged JSONL
   telemetry trace of the evaluation grid (the figure-2/3/headline
   sections), readable with `pfuzzer_cli trace-report'. *)

module Render = Pdf_util.Render
module Rng = Pdf_util.Rng
module Coverage = Pdf_instr.Coverage
module Subject = Pdf_subjects.Subject
module Catalog = Pdf_subjects.Catalog
module Pfuzzer = Pdf_core.Pfuzzer
module Heuristic = Pdf_core.Heuristic
module Experiment = Pdf_eval.Experiment
module Report = Pdf_eval.Report
module Token_report = Pdf_eval.Token_report

let ppf = Format.std_formatter

type options = {
  budget : int;
  seeds : int list;
  jobs : int;
  sections : string list;
  quick : bool;
  out : string option;
  trace : string option;
  minor_heap : int;  (* words; 0 keeps the runtime default *)
}

let valid_sections =
  [
    "table-1"; "table-2"; "table-3"; "table-4"; "figure-2"; "figure-3";
    "headline"; "ablation-dyck"; "ablation-heuristic"; "ablation-grammar";
    "ablation-tables"; "ablation-token-taints"; "ablation-semantics";
    "pipeline"; "micro"; "incremental"; "obs"; "monitor"; "dist"; "loop";
  ]

let usage_line =
  "usage: main.exe [--quick] [--budget N] [--seeds S1,S2,...] [--jobs N|auto] \
   [--out FILE] [--trace FILE] [--minor-heap WORDS] [SECTION...]\n\
   sections: " ^ String.concat " " valid_sections

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m);
      prerr_endline usage_line;
      exit 2)
    fmt

let int_arg name v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> die "invalid %s %S, expected an integer" name v

let parse_args () =
  let budget = ref 4_000_000 in
  let seeds = ref [ 1 ] in
  let jobs = ref 1 in
  let sections = ref [] in
  let quick = ref false in
  let out = ref None in
  let trace = ref None in
  let minor_heap = ref 0 in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      budget := 400_000;
      quick := true;
      go rest
    | "--budget" :: v :: rest ->
      budget := int_arg "budget" v;
      if !budget <= 0 then die "budget must be positive, got %d" !budget;
      go rest
    | "--seeds" :: v :: rest ->
      seeds := List.map (int_arg "seed") (String.split_on_char ',' v);
      if !seeds = [] then die "empty seed list";
      go rest
    | "--jobs" :: v :: rest ->
      jobs :=
        (if v = "auto" then Pdf_eval.Parallel.default_jobs ()
         else int_arg "jobs" v);
      if !jobs < 0 then die "jobs must be non-negative, got %d" !jobs;
      if !jobs = 0 then jobs := Pdf_eval.Parallel.default_jobs ();
      go rest
    | "--out" :: v :: rest ->
      out := Some v;
      go rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      go rest
    | "--minor-heap" :: v :: rest ->
      minor_heap := int_arg "minor-heap" v;
      if !minor_heap < 0 then
        die "minor-heap must be non-negative, got %d" !minor_heap;
      go rest
    | [ ("--budget" | "--seeds" | "--jobs" | "--out" | "--trace" | "--minor-heap") ] ->
      die "missing value for the last option"
    | opt :: _ when String.length opt > 0 && opt.[0] = '-' ->
      die "unknown option %s" opt
    | section :: rest ->
      if not (List.mem section valid_sections) then
        die "unknown section %S" section;
      sections := section :: !sections;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    budget = !budget;
    seeds = !seeds;
    jobs = !jobs;
    sections = List.rev !sections;
    quick = !quick;
    out = !out;
    trace = !trace;
    minor_heap = !minor_heap;
  }

(* Machine-readable output: sections that measure something append a JSON
   fragment here; --out writes them as one object, in section order. *)
let json_sections : (string * string) list ref = ref []
let add_json name fragment = json_sections := (name, fragment) :: !json_sections

let write_json options =
  match options.out with
  | None -> ()
  | Some file ->
    Pdf_util.Atomic_file.with_out file (fun oc ->
        Printf.fprintf oc "{\n%s\n}\n"
          (String.concat ",\n"
             (List.map
                (fun (k, v) -> Printf.sprintf "  %S: %s" k v)
                (List.rev !json_sections))));
    Format.fprintf ppf "@.Wrote JSON results to %s@." file

let wants options section =
  options.sections = [] || List.mem section options.sections

(* {1 Static tables} *)

let table_1 () =
  Render.section ppf "table-1: evaluation subjects (paper Table 1)";
  Report.table_1 ppf Catalog.evaluation

let table_tokens name section =
  Render.section ppf (Printf.sprintf "%s: token inventory" section);
  Report.token_inventory ppf (Catalog.find name)

(* {1 The main experiment: Figures 2 and 3, headline numbers} *)

let experiment_result = ref None

let get_experiment options =
  match !experiment_result with
  | Some e -> e
  | None ->
    let config =
      { Experiment.budget_units = options.budget; seeds = options.seeds; verbose = true }
    in
    Format.fprintf ppf
      "@.Running the evaluation grid: budget %d units per (tool, subject),@.\
       seeds %s, %d job(s); AFL pays 1 unit per execution, pFuzzer/KLEE pay 100.@."
      options.budget
      (String.concat "," (List.map string_of_int options.seeds))
      options.jobs;
    let run_grid trace_oc =
      Experiment.run ~jobs:options.jobs ?trace:trace_oc config Catalog.evaluation
    in
    let e =
      match options.trace with
      | None -> run_grid None
      | Some path ->
        let e =
          Pdf_util.Atomic_file.with_out path (fun oc -> run_grid (Some oc))
        in
        Format.fprintf ppf "@.Wrote evaluation-grid trace to %s@." path;
        e
    in
    experiment_result := Some e;
    e

let figure_2 options =
  Render.section ppf "figure-2: branch coverage per subject and tool";
  Report.figure_2 ppf (get_experiment options)

let figure_3 options =
  Render.section ppf "figure-3: tokens generated, by token length";
  Report.figure_3 ppf (get_experiment options)

let headline options =
  Render.section ppf "headline: Section 5.3 token shares";
  Report.headline ppf (get_experiment options)

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

let ablation_dyck options =
  Render.section ppf "ablation-dyck: search strategy on balanced brackets (Section 3)";
  let subject = Catalog.find "paren" in
  let execs = max 1 (options.budget / 100) in
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

let ablation_heuristic options =
  Render.section ppf "ablation-heuristic: Algorithm 1 heuristic variants on tinyC";
  let subject = Catalog.find "tinyc" in
  let execs = max 1 (options.budget / 40) in
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

let ablation_grammar options =
  Render.section ppf "ablation-grammar: pFuzzer vs mined-grammar generation (Section 7.4)";
  let subject = Catalog.find "json" in
  let execs = max 1 (options.budget / 100) in
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

let ablation_tables options =
  Render.section ppf "ablation-tables: table-driven parsing (Section 7.1)";
  let execs = max 1 (options.budget / 100) in
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

let ablation_token_taints options =
  Render.section ppf "ablation-token-taints: §7.2 taint recovery through the tokenizer";
  let execs = max 1 (options.budget / 40) in
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

let ablation_semantics options =
  Render.section ppf "ablation-semantics: §7.3 delayed semantic checks";
  let plain = Catalog.find "tinyc" and sem = Catalog.find "tinyc-sem" in
  let execs = max 1 (options.budget / 40) in
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

let pipeline options =
  Render.section ppf "pipeline: AFL -> pFuzzer -> KLEE hand-over (Section 6.2)";
  List.iter
    (fun name ->
      let subject = Catalog.find name in
      let result =
        Pdf_eval.Pipeline.run ~budget_units:options.budget ~seed:1 subject
      in
      let rows =
        List.map
          (fun (s : Pdf_eval.Pipeline.stage_report) ->
            [
              Pdf_eval.Tool.display_name s.stage;
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
             name options.budget
             (List.length result.valid_inputs)
             (List.length tags))
        ~header:[ "stage"; "executions"; "new valid"; "cumulative coverage %" ]
        rows)
    [ "json"; "tinyc" ]

(* {1 Micro-benchmarks (Bechamel): instrumentation overhead (Section 4)} *)

let micro options =
  Render.section ppf "micro: instrumentation overhead and hot-path costs (Bechamel)";
  let open Bechamel in
  let json = Catalog.find "json" in
  let sample_input = {|{"key": [1, -2.5e3, true, false, null], "s": "txt"}|} in
  let tinyc = Catalog.find "tinyc" in
  let tinyc_input = "if(a<2)b=1;else while(0)c=c+1;" in
  let trace =
    (Subject.run ~track_comparisons:false ~track_trace:true json sample_input)
      .Pdf_instr.Runner.trace
  in
  let builder = Pdf_afl.Bitmap.builder () in
  let rng = Rng.make 1 in
  let tests =
    [
      Test.make ~name:"json/full-instrumentation"
        (Staged.stage (fun () -> ignore (Subject.run json sample_input)));
      Test.make ~name:"json/coverage-only"
        (Staged.stage (fun () ->
             ignore (Subject.run ~track_comparisons:false json sample_input)));
      Test.make ~name:"json/oracle-scanner"
        (Staged.stage (fun () -> ignore (json.tokenize sample_input)));
      Test.make ~name:"tinyc/full-instrumentation"
        (Staged.stage (fun () -> ignore (Subject.run tinyc tinyc_input)));
      Test.make ~name:"tinyc/coverage-only"
        (Staged.stage (fun () ->
             ignore (Subject.run ~track_comparisons:false tinyc tinyc_input)));
      Test.make ~name:"afl/bitmap-fold"
        (Staged.stage (fun () ->
             ignore (Pdf_afl.Bitmap.sparse_of_trace builder trace)));
      Test.make ~name:"afl/havoc"
        (Staged.stage (fun () -> ignore (Pdf_afl.Mutator.havoc rng sample_input)));
      Test.make ~name:"pqueue/push-pop-1k"
        (Staged.stage (fun () ->
             let q = Pdf_util.Pqueue.create () in
             for i = 1 to 1000 do
               Pdf_util.Pqueue.push q (float_of_int (i mod 97)) i
             done;
             while Pdf_util.Pqueue.pop q <> None do
               ()
             done));
    ]
  in
  let cfg =
    if options.quick then Benchmark.cfg ~limit:500 ~quota:(Time.second 0.1) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Hashtbl.create 16 in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter (fun k v -> Hashtbl.replace results k v) analyzed)
    tests;
  let time_of name =
    match Hashtbl.find_opt results name with
    | None -> nan
    | Some o ->
      (match Analyze.OLS.estimates o with
       | Some (t :: _) -> t
       | Some [] | None -> nan)
  in
  let names =
    [
      "json/full-instrumentation"; "json/coverage-only"; "json/oracle-scanner";
      "tinyc/full-instrumentation"; "tinyc/coverage-only"; "afl/bitmap-fold";
      "afl/havoc"; "pqueue/push-pop-1k";
    ]
  in
  let rows =
    List.map
      (fun name ->
        let ns = time_of name in
        [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.0f" (1e9 /. ns) ])
      names
  in
  Render.table ppf ~title:"hot-path costs (OLS estimate)"
    ~header:[ "benchmark"; "ns/run"; "execs/sec" ] rows;
  add_json "micro"
    (Printf.sprintf "[\n%s\n  ]"
       (String.concat ",\n"
          (List.map
             (fun name ->
               let ns = time_of name in
               Printf.sprintf
                 "    { \"name\": %S, \"ns_per_run\": %.0f, \"execs_per_sec\": %.0f }"
                 name ns (1e9 /. ns))
             names)));
  let full = time_of "json/full-instrumentation"
  and scanner = time_of "json/oracle-scanner" in
  Format.fprintf ppf
    "@.Instrumentation overhead vs a plain scanner: %.0fx (the paper reports@.\
     a ~100x slowdown for its LLVM taint instrumentation, Section 4).@."
    (full /. scanner)

(* {1 Incremental execution: prefix-snapshot resume vs full re-execution}

   The fuzzer's dominant execution is a one-character extension of an
   input it just ran. With the prefix-snapshot cache the child resumes
   from the parent's suspended parse and executes only the new suffix;
   this section measures that saving directly on deeply nested inputs
   (where the shared prefix — hence the saving — is largest) and reports
   the cache hit rate of a real fuzzing run.

   Noise discipline as in BENCH_hotpath.json: full and resumed
   executions are timed in interleaved rounds on the same boot, paired
   per round, and the median pairwise speedup is reported. *)

module Runner = Pdf_instr.Runner

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time_ns_per_run f iters =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  ((Unix.gettimeofday () -. t0) *. 1e9) /. float_of_int iters

let incremental options =
  Render.section ppf
    "incremental: prefix-snapshot resume vs full re-execution";
  let rounds = 6 in
  let iters = if options.quick then 400 else 4000 in
  let cases =
    List.concat_map
      (fun (name, opener, closer) ->
        List.map (fun depth -> (name, opener, closer, depth)) [ 16; 32; 64 ])
      [ ("json", '[', ']'); ("expr", '(', ')') ]
  in
  let measured =
    List.map
      (fun (name, opener, closer, depth) ->
        let subject = Catalog.find name in
        let machine =
          match subject.Subject.machine with
          | Some m -> m
          | None -> failwith (name ^ " has no machine-form parser")
        in
        (* The fuzzer's extension scenario: the parent ran, its
           EOF-position snapshot is cached, the child appends one
           character. *)
        let child =
          String.make depth opener ^ "1" ^ String.make depth closer
        in
        let parent = String.sub child 0 (String.length child - 1) in
        let _parent_run, journal = Subject.exec_journaled subject machine parent in
        let snap =
          match Runner.snapshot_at journal (String.length parent) with
          | Some s -> s
          | None -> failwith "parent run has no EOF-position snapshot"
        in
        (* Equivalence sanity before timing anything. *)
        let full_run, _ = Subject.exec_journaled subject machine child in
        let res_run, _ = Runner.resume snap child in
        if
          full_run.Runner.verdict <> res_run.Runner.verdict
          || full_run.Runner.comparisons <> res_run.Runner.comparisons
          || not (Coverage.equal full_run.Runner.coverage res_run.Runner.coverage)
        then failwith "resume diverged from full execution";
        let per_round =
          List.init rounds (fun _ ->
              let full_ns =
                time_ns_per_run
                  (fun () -> ignore (Subject.exec_journaled subject machine child))
                  iters
              in
              let resumed_ns =
                time_ns_per_run (fun () -> ignore (Runner.resume snap child)) iters
              in
              (full_ns, resumed_ns, full_ns /. resumed_ns))
        in
        let fulls = List.map (fun (f, _, _) -> f) per_round in
        let resumeds = List.map (fun (_, r, _) -> r) per_round in
        let speedups = List.map (fun (_, _, s) -> s) per_round in
        ( Printf.sprintf "%s/depth-%d" name depth,
          String.length child,
          median fulls,
          median resumeds,
          median speedups,
          List.fold_left max neg_infinity speedups ))
      cases
  in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "one-character extension of a nested input (%d interleaved rounds, %d execs each)"
         rounds iters)
    ~header:
      [ "case"; "len"; "full ns"; "resumed ns"; "speedup (median)"; "best" ]
    (List.map
       (fun (case, len, full, resumed, sp_med, sp_best) ->
         [
           case;
           string_of_int len;
           Printf.sprintf "%.0f" full;
           Printf.sprintf "%.0f" resumed;
           Printf.sprintf "%.2fx" sp_med;
           Printf.sprintf "%.2fx" sp_best;
         ])
       measured);
  (* Cache accounting of a real fuzzing run: the hit rate tells how often
     the measured fast path is actually taken. *)
  let fuzz_execs = if options.quick then 2_000 else 20_000 in
  let fuzz_stats =
    List.map
      (fun name ->
        let subject = Catalog.find name in
        let r =
          Pfuzzer.fuzz
            { Pfuzzer.default_config with max_executions = fuzz_execs }
            subject
        in
        (name, r.Pfuzzer.cache))
      [ "json"; "expr" ]
  in
  Render.table ppf
    ~title:
      (Printf.sprintf "prefix-cache accounting over a %d-execution fuzzing run"
         fuzz_execs)
    ~header:[ "subject"; "hits"; "misses"; "hit rate"; "evictions"; "chars saved" ]
    (List.map
       (fun (name, (c : Pfuzzer.cache_stats)) ->
         [
           name;
           string_of_int c.hits;
           string_of_int c.misses;
           Printf.sprintf "%.1f%%"
             (100. *. float_of_int c.hits /. float_of_int (max 1 (c.hits + c.misses)));
           string_of_int c.evictions;
           string_of_int c.chars_saved;
         ])
       fuzz_stats);
  add_json "incremental"
    (Printf.sprintf
       "{\n    \"rounds\": %d,\n    \"iters_per_round\": %d,\n    \"rows\": [\n%s\n    ],\n    \"fuzz_cache\": {\n%s\n    }\n  }"
       rounds iters
       (String.concat ",\n"
          (List.map
             (fun (case, len, full, resumed, sp_med, sp_best) ->
               Printf.sprintf
                 "      { \"name\": %S, \"input_len\": %d, \"full_ns_median\": %.0f, \
                  \"resumed_ns_median\": %.0f, \"speedup_pairwise_median\": %.2f, \
                  \"speedup_pairwise_best\": %.2f }"
                 case len full resumed sp_med sp_best)
             measured))
       (String.concat ",\n"
          (List.map
             (fun (name, (c : Pfuzzer.cache_stats)) ->
               Printf.sprintf
                 "      %S: { \"executions\": %d, \"hits\": %d, \"misses\": %d, \
                  \"evictions\": %d, \"chars_saved\": %d }"
                 name fuzz_execs c.hits c.misses c.evictions c.chars_saved)
             fuzz_stats)))

(* {1 Search-loop overhead: campaign cost beyond raw execution}

   The campaign/exec gap: a fuzzing campaign spends campaign_ns per
   execution, a bare execution loop over a fixed corpus spends exec_ns;
   the difference is pure search-loop overhead — candidate generation,
   dedupe, scoring, queue and cache maintenance. This section measures
   that difference per subject, plus minor-heap allocation per campaign
   execution, and is written against stable APIs only so the identical
   source can be compiled at an older revision for before/after
   comparisons (BENCH_loop.json). *)

let loop_corpus = function
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
  | name -> failwith ("no loop-bench corpus for " ^ name)

let loop_bench options =
  Render.section ppf
    (Printf.sprintf "loop: search-loop overhead (%s profile)"
       Build_profile.profile);
  let rounds = if options.quick then 3 else 5 in
  let slice = if options.quick then 3_000 else 30_000 in
  let campaign_execs = if options.quick then 2_000 else 20_000 in
  let subjects = [ "expr"; "paren"; "ini"; "csv"; "json" ] in
  let measured =
    List.map
      (fun name ->
        let subject = Catalog.find name in
        let machine =
          match subject.Subject.machine with
          | Some m -> m
          | None -> failwith (name ^ " has no machine-form parser")
        in
        let inputs = loop_corpus name in
        let run_one input =
          ignore (Subject.exec_journaled subject machine input)
        in
        (* Raw execution cost: the journaled runner over the fixed
           corpus, best of [rounds] slices. *)
        let execs_per_slice = slice * List.length inputs in
        let time_slice () =
          let t0 = Unix.gettimeofday () in
          for _ = 1 to slice do
            List.iter run_one inputs
          done;
          (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int execs_per_slice
        in
        List.iter run_one inputs;
        (* warmup *)
        let exec_ns =
          List.fold_left min infinity (List.init rounds (fun _ -> time_slice ()))
        in
        (* Whole-campaign cost and allocation rate. *)
        let cfg = { Pfuzzer.default_config with max_executions = campaign_execs } in
        ignore (Pfuzzer.fuzz { cfg with max_executions = 2_000 } subject);
        (* warmup *)
        let samples =
          List.init rounds (fun _ ->
              let w0 = Gc.minor_words () in
              let t0 = Unix.gettimeofday () in
              let (_ : Pfuzzer.result) = Pfuzzer.fuzz cfg subject in
              let dt = Unix.gettimeofday () -. t0 in
              let dw = Gc.minor_words () -. w0 in
              ( dt *. 1e9 /. float_of_int campaign_execs,
                dw /. float_of_int campaign_execs ))
        in
        let campaign_ns = median (List.map fst samples) in
        let minor_words = median (List.map snd samples) in
        (name, campaign_ns, exec_ns, campaign_ns -. exec_ns, minor_words))
      subjects
  in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "campaign vs raw execution, ns/exec (%d campaign execs, %d-exec raw \
          slices, %d rounds)"
         campaign_execs slice rounds)
    ~header:
      [ "subject"; "campaign"; "raw exec"; "overhead"; "minor words/exec" ]
    (List.map
       (fun (name, c, e, o, w) ->
         [
           name;
           Printf.sprintf "%.0f" c;
           Printf.sprintf "%.0f" e;
           Printf.sprintf "%.0f" o;
           Printf.sprintf "%.0f" w;
         ])
       measured);
  add_json "loop"
    (Printf.sprintf
       "{\n    \"profile\": %S,\n    \"campaign_execs\": %d,\n    \"raw_slice_execs\": %d,\n    \
        \"rounds\": %d,\n    \"minor_heap_words\": %d,\n    \"rows\": [\n%s\n    ]\n  }"
       Build_profile.profile campaign_execs slice rounds
       Gc.((get ()).minor_heap_size)
       (String.concat ",\n"
          (List.map
             (fun (name, c, e, o, w) ->
               Printf.sprintf
                 "      { \"name\": %S, \"campaign_ns_per_exec\": %.0f, \
                  \"exec_ns_per_exec\": %.0f, \"overhead_ns_per_exec\": %.0f, \
                  \"minor_words_per_exec\": %.0f }"
                 name c e o w)
             measured)))

(* {1 Telemetry overhead: the fuzzer with the observer off, on, and fully
   traced}

   The observability contract is "near-zero cost when disabled": the
   fuzzer holds an [Observer.t option] and every telemetry site is one
   branch on [None]. This section measures whole fuzzing runs in
   interleaved rounds — disabled, metrics-only (spans + histograms, no
   sink), and traced into an in-memory buffer — and reports median
   ns/execution for each, plus the overhead relative to disabled. *)

let obs_bench options =
  Render.section ppf "obs: telemetry overhead on the fuzzing hot path";
  let rounds = 5 in
  let execs = if options.quick then 1_000 else 5_000 in
  let measured =
    List.map
      (fun subject_name ->
        let subject = Catalog.find subject_name in
        let config = { Pfuzzer.default_config with max_executions = execs } in
        let time_run f =
          let t0 = Unix.gettimeofday () in
          let (_ : Pfuzzer.result) = f () in
          (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int execs
        in
        let per_round =
          List.init rounds (fun _ ->
              let off = time_run (fun () -> Pfuzzer.fuzz config subject) in
              let metrics_only =
                time_run (fun () ->
                    let obs =
                      Pdf_obs.Observer.create ~metrics:(Pdf_obs.Metrics.create ()) ()
                    in
                    Pfuzzer.fuzz ~obs config subject)
              in
              let traced =
                time_run (fun () ->
                    let sink, _ = Pdf_obs.Trace.buffer () in
                    let obs =
                      Pdf_obs.Observer.create ~sink
                        ~metrics:(Pdf_obs.Metrics.create ()) ()
                    in
                    Pfuzzer.fuzz ~obs config subject)
              in
              (off, metrics_only, traced))
        in
        let off = median (List.map (fun (a, _, _) -> a) per_round) in
        let metrics_only = median (List.map (fun (_, b, _) -> b) per_round) in
        let traced = median (List.map (fun (_, _, c) -> c) per_round) in
        (subject_name, off, metrics_only, traced))
      [ "json"; "tinyc" ]
  in
  let pct base v = 100. *. ((v /. base) -. 1.) in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "whole fuzzing runs, ns/execution (%d interleaved rounds, %d execs each)"
         rounds execs)
    ~header:
      [ "subject"; "disabled"; "metrics only"; "traced"; "metrics ovh"; "trace ovh" ]
    (List.map
       (fun (name, off, m, t) ->
         [
           name;
           Printf.sprintf "%.0f" off;
           Printf.sprintf "%.0f" m;
           Printf.sprintf "%.0f" t;
           Printf.sprintf "%+.1f%%" (pct off m);
           Printf.sprintf "%+.1f%%" (pct off t);
         ])
       measured);
  add_json "obs"
    (Printf.sprintf "{\n    \"rounds\": %d,\n    \"execs_per_run\": %d,\n    \"rows\": [\n%s\n    ]\n  }"
       rounds execs
       (String.concat ",\n"
          (List.map
             (fun (name, off, m, t) ->
               Printf.sprintf
                 "      { \"name\": %S, \"disabled_ns_per_exec\": %.0f, \
                  \"metrics_ns_per_exec\": %.0f, \"traced_ns_per_exec\": %.0f, \
                  \"metrics_overhead_pct\": %.1f, \"traced_overhead_pct\": %.1f }"
                 name off m t (pct off m) (pct off t))
             measured)))

(* {1 Monitoring overhead: sampled tracing and the flight recorder}

   The monitoring contract: full tracing is allowed to be expensive
   (BENCH_obs.json puts it around double the disabled cost), but the
   always-on production modes must not be. Sampling exec-level events
   1-in-100 has to bring the overhead down to single digits, and the
   flight-recorder ring — retention without serialization — must be
   within a few percent of running blind. Interleaved rounds as in the
   obs section: disabled, fully traced, sampled 1/100, and ring-only at
   the same sampling rate. *)

let monitor_bench options =
  Render.section ppf "monitor: sampled tracing and flight-recorder overhead";
  let rounds = if options.quick then 5 else 9 in
  let execs = if options.quick then 1_000 else 10_000 in
  let sample = 100 in
  let measured =
    List.map
      (fun subject_name ->
        let subject = Catalog.find subject_name in
        let config = { Pfuzzer.default_config with max_executions = execs } in
        let time_run f =
          let t0 = Unix.gettimeofday () in
          let (_ : Pfuzzer.result) = f () in
          (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int execs
        in
        let per_round =
          List.init rounds (fun _ ->
              let off = time_run (fun () -> Pfuzzer.fuzz config subject) in
              let full =
                time_run (fun () ->
                    let sink, _ = Pdf_obs.Trace.buffer () in
                    let obs = Pdf_obs.Observer.create ~sink () in
                    Pfuzzer.fuzz ~obs config subject)
              in
              let sampled =
                time_run (fun () ->
                    let sink, _ = Pdf_obs.Trace.buffer () in
                    let obs = Pdf_obs.Observer.create ~sink ~sample () in
                    Pfuzzer.fuzz ~obs config subject)
              in
              let recorder =
                time_run (fun () ->
                    let obs =
                      Pdf_obs.Observer.create ~ring:(Pdf_obs.Trace.ring 512)
                        ~sample ()
                    in
                    Pfuzzer.fuzz ~obs config subject)
              in
              (off, full, sampled, recorder))
        in
        let off = median (List.map (fun (a, _, _, _) -> a) per_round) in
        let full = median (List.map (fun (_, b, _, _) -> b) per_round) in
        let sampled = median (List.map (fun (_, _, c, _) -> c) per_round) in
        let recorder = median (List.map (fun (_, _, _, d) -> d) per_round) in
        (subject_name, off, full, sampled, recorder))
      [ "json"; "tinyc" ]
  in
  let pct base v = 100. *. ((v /. base) -. 1.) in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "whole fuzzing runs, ns/execution (%d interleaved rounds, %d execs \
          each, sampling 1/%d)"
         rounds execs sample)
    ~header:
      [
        "subject"; "disabled"; "full trace"; "sampled"; "ring 512";
        "full ovh"; "sampled ovh"; "ring ovh";
      ]
    (List.map
       (fun (name, off, full, sampled, recorder) ->
         [
           name;
           Printf.sprintf "%.0f" off;
           Printf.sprintf "%.0f" full;
           Printf.sprintf "%.0f" sampled;
           Printf.sprintf "%.0f" recorder;
           Printf.sprintf "%+.1f%%" (pct off full);
           Printf.sprintf "%+.1f%%" (pct off sampled);
           Printf.sprintf "%+.1f%%" (pct off recorder);
         ])
       measured);
  add_json "monitor"
    (Printf.sprintf
       "{\n    \"rounds\": %d,\n    \"execs_per_run\": %d,\n    \"sample\": %d,\n\
       \    \"rows\": [\n%s\n    ]\n  }"
       rounds execs sample
       (String.concat ",\n"
          (List.map
             (fun (name, off, full, sampled, recorder) ->
               Printf.sprintf
                 "      { \"name\": %S, \"disabled_ns_per_exec\": %.0f, \
                  \"full_trace_ns_per_exec\": %.0f, \
                  \"sampled_ns_per_exec\": %.0f, \
                  \"recorder_ns_per_exec\": %.0f, \
                  \"full_overhead_pct\": %.1f, \
                  \"sampled_overhead_pct\": %.1f, \
                  \"recorder_overhead_pct\": %.1f }"
                 name off full sampled recorder (pct off full)
                 (pct off sampled) (pct off recorder))
             measured)))

(* {1 Distributed campaigns: equivalence, then worker scaling}

   Equivalence before timing: the merged result of every fleet must be
   bit-identical to the sequential reference, or the scaling numbers
   measure a different computation. Scaling is then honest wall clock
   over the same shard plan, with the machine's core count recorded —
   on a single-core runner every worker count shares one CPU, and the
   fork/pipe overhead makes N>1 slower, not faster. The JSON says so
   rather than pretending. *)

let dist_bench options =
  Render.section ppf "dist: distributed campaign equivalence and worker scaling";
  let subject_name = "json" in
  let subject = Catalog.find subject_name in
  let execs = max 400 (options.budget / 100) in
  let shards = 8 in
  let frame_every = max 1 (execs / (4 * shards)) in
  let config = { Pfuzzer.default_config with max_executions = execs } in
  let reference = Pdf_eval.Dist.reference ~shards config subject in
  let ref_bytes = Marshal.to_string reference [] in
  let rounds = if options.quick then 3 else 5 in
  let worker_counts = [ 1; 2; 4 ] in
  let measured =
    List.map
      (fun workers ->
        let outcomes =
          List.init rounds (fun _ ->
              Pdf_eval.Dist.run_campaign ~workers ~shards ~frame_every config
                subject)
        in
        List.iter
          (fun (o : Pdf_eval.Dist.outcome) ->
            if Marshal.to_string o.result [] <> ref_bytes then
              failwith
                (Printf.sprintf
                   "dist: workers:%d diverged from the sequential reference"
                   workers))
          outcomes;
        let walls =
          List.map (fun (o : Pdf_eval.Dist.outcome) -> o.wall_clock_s) outcomes
        in
        (workers, median walls))
      worker_counts
  in
  let t1 = match measured with (_, t) :: _ -> t | [] -> nan in
  let cores = Pdf_eval.Parallel.default_jobs () in
  Render.table ppf
    ~title:
      (Printf.sprintf
         "%s subject, %d executions over %d shards, %d round(s), %d core(s) \
          available — every fleet bit-identical to the reference"
         subject_name execs shards rounds cores)
    ~header:[ "workers"; "wall s (median)"; "scaling vs workers:1" ]
    (List.map
       (fun (workers, wall) ->
         [
           string_of_int workers;
           Printf.sprintf "%.3f" wall;
           Printf.sprintf "%.2fx" (t1 /. wall);
         ])
       measured);
  if cores < 2 then
    Format.fprintf ppf
      "Single-core machine: worker processes time-slice one CPU, so the@.\
       scaling column measures fork and pipe overhead, not speedup.@.";
  add_json "dist"
    (Printf.sprintf
       "{\n    \"subject\": %S,\n    \"executions\": %d,\n    \"shards\": %d,\n\
       \    \"rounds\": %d,\n    \"cores\": %d,\n    \"equivalent\": true,\n\
       \    \"rows\": [\n%s\n    ]\n  }"
       subject_name execs shards rounds cores
       (String.concat ",\n"
          (List.map
             (fun (workers, wall) ->
               Printf.sprintf
                 "      { \"workers\": %d, \"wall_s_median\": %.3f, \
                  \"scaling_vs_1\": %.2f }"
                 workers wall (t1 /. wall))
             measured)))

let () =
  let options = parse_args () in
  if options.minor_heap > 0 then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = options.minor_heap };
  (* dist forks worker processes; OCaml 5 forbids fork once any domain
     has been spawned, so it must precede the evaluation-grid sections. *)
  if wants options "dist" then dist_bench options;
  if wants options "table-1" then table_1 ();
  if wants options "table-2" then table_tokens "json" "table-2";
  if wants options "table-3" then table_tokens "tinyc" "table-3";
  if wants options "table-4" then table_tokens "mjs" "table-4";
  if wants options "figure-2" then figure_2 options;
  if wants options "figure-3" then figure_3 options;
  if wants options "headline" then headline options;
  if wants options "ablation-dyck" then ablation_dyck options;
  if wants options "ablation-heuristic" then ablation_heuristic options;
  if wants options "ablation-grammar" then ablation_grammar options;
  if wants options "ablation-tables" then ablation_tables options;
  if wants options "ablation-token-taints" then ablation_token_taints options;
  if wants options "ablation-semantics" then ablation_semantics options;
  if wants options "pipeline" then pipeline options;
  if wants options "micro" then micro options;
  if wants options "incremental" then incremental options;
  if wants options "loop" then loop_bench options;
  if wants options "obs" then obs_bench options;
  if wants options "monitor" then monitor_bench options;
  write_json options;
  Format.pp_print_flush ppf ()
