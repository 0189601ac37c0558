module Site = Pdf_instr.Site
module Coverage = Pdf_instr.Coverage
module Comparison = Pdf_instr.Comparison
module Ctx = Pdf_instr.Ctx
module Runner = Pdf_instr.Runner
module Frame = Pdf_instr.Frame
module Charset = Pdf_util.Charset
module Rng = Pdf_util.Rng
module Tchar = Pdf_taint.Tchar
module Tstring = Pdf_taint.Tstring

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* {1 Site} *)

let test_site_registry () =
  let r = Site.create_registry "t" in
  let a = Site.block r "a" in
  let b = Site.branch r "b" in
  check Alcotest.int "dense ids" 0 (Site.id a);
  check Alcotest.int "dense ids" 1 (Site.id b);
  check Alcotest.string "name" "a" (Site.name a);
  check Alcotest.int "site count" 2 (Site.site_count r);
  check Alcotest.int "outcome total: block 1 + branch 2" 3 (Site.total_outcomes r);
  check Alcotest.int "block outcome ignores taken" (Site.outcome a true) (Site.outcome a false);
  Alcotest.(check bool) "branch outcomes differ" true
    (Site.outcome b true <> Site.outcome b false);
  check Alcotest.(list string) "declaration order" [ "a"; "b" ]
    (List.map Site.name (Site.sites r));
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Site: duplicate site \"a\" in registry \"t\"") (fun () ->
      ignore (Site.block r "a"))

let test_site_outcome_names () =
  let r = Site.create_registry "t" in
  let a = Site.block r "blk" in
  let b = Site.branch r "br" in
  check Alcotest.string "block name" "blk" (Site.outcome_name r (Site.outcome a true));
  check Alcotest.string "branch taken" "br:taken" (Site.outcome_name r (Site.outcome b true));
  check Alcotest.string "branch fall" "br:fall" (Site.outcome_name r (Site.outcome b false))

(* {1 Coverage} *)

let test_coverage () =
  let c = Coverage.of_list [ 1; 2; 3 ] in
  check Alcotest.int "cardinal" 3 (Coverage.cardinal c);
  Alcotest.(check bool) "mem" true (Coverage.mem 2 c);
  let d = Coverage.of_list [ 3; 4 ] in
  check Alcotest.int "union" 4 (Coverage.cardinal (Coverage.union c d));
  check Alcotest.int "new_against" 1 (Coverage.new_against d ~baseline:c);
  check Alcotest.int "diff" 2 (Coverage.cardinal (Coverage.diff c d));
  Alcotest.(check bool) "equal" true (Coverage.equal c (Coverage.of_list [ 3; 2; 1 ]))

(* {1 Comparison} *)

let mk_cmp ?(index = 0) ?(result = false) kind =
  { Comparison.trace_pos = 0; index; kind; result; stack_depth = 1 }

let test_replacements () =
  let rng = Rng.make 1 in
  check Alcotest.(list string) "char eq" [ "x" ]
    (Comparison.replacements rng (mk_cmp (Comparison.Char_eq 'x')));
  let digits = Comparison.replacements rng (mk_cmp (Comparison.Char_range ('0', '9'))) in
  check Alcotest.int "digit range enumerated" 10 (List.length digits);
  let suffix =
    Comparison.replacements rng
      (mk_cmp (Comparison.Str_eq { expected = "while"; offset = 2 }))
  in
  check Alcotest.(list string) "keyword suffix" [ "ile" ] suffix;
  check Alcotest.(list string) "exhausted keyword" []
    (Comparison.replacements rng
       (mk_cmp (Comparison.Str_eq { expected = "do"; offset = 2 })));
  let sampled =
    Comparison.replacements rng (mk_cmp (Comparison.Char_set (Charset.printable, "p")))
  in
  Alcotest.(check bool) "large set sampled, bounded" true
    (List.length sampled >= 1 && List.length sampled <= 4)

let prop_char_constraint =
  QCheck.Test.make ~name:"char_constraint matches observed result" ~count:500
    QCheck.(triple (map Char.chr (int_range 0 255)) (map Char.chr (int_range 0 255)) bool)
    (fun (observed, expected, result) ->
      (* For a Char_eq event with the given result, the constraint set
         contains exactly the chars that would reproduce that result. *)
      let cmp = mk_cmp ~result (Comparison.Char_eq expected) in
      let set = Comparison.char_constraint cmp in
      Charset.mem observed set = (if result then observed = expected else observed <> expected))

(* {2 Streamed replacements against the list-based model}

   The model is the list-building implementation the streamed
   [iter_replacements] replaced: a closure-based [pick] that walks the
   set until the drawn rank, and a [sample_set] that enumerates a small
   set and draws a large one into a [List.mem]-checked list. Streamed
   and listed forms must yield the same strings in the same order and
   leave the generator in the same state. *)

let model_singleton = Array.init 256 (fun i -> String.make 1 (Char.chr i))

let model_pick rng set =
  let n = List.length (Charset.to_list set) in
  if n = 0 then None
  else begin
    let k = Rng.int rng n in
    let found = ref None and seen = ref 0 in
    (try
       Charset.iter
         (fun c ->
           if !seen = k then begin
             found := Some c;
             raise Exit
           end;
           incr seen)
         set
     with Exit -> ());
    !found
  end

let model_sample_set rng set =
  let members = Charset.to_list set in
  if List.length members <= 16 then
    List.map (fun c -> model_singleton.(Char.code c)) members
  else
    let rec draw acc k =
      if k = 0 then acc
      else
        match model_pick rng set with
        | None -> acc
        | Some c ->
          let s = model_singleton.(Char.code c) in
          if List.mem s acc then draw acc k else draw (s :: acc) (k - 1)
    in
    draw [] 4

let model_replacements rng (t : Comparison.t) =
  match t.kind with
  | Comparison.Char_eq c -> [ model_singleton.(Char.code c) ]
  | Comparison.Char_range (lo, hi) -> model_sample_set rng (Charset.range lo hi)
  | Comparison.Char_set (set, _) -> model_sample_set rng set
  | Comparison.Str_eq { expected; offset } ->
    if offset >= String.length expected then []
    else [ String.sub expected offset (String.length expected - offset) ]

let char_of_int = QCheck.Gen.map Char.chr (QCheck.Gen.int_range 0 255)

(* Every shape the sampling policy distinguishes: inverted, narrow
   (enumerated) and wide (sampled) ranges; empty, small, large and full
   sets. *)
let kind_gen =
  let open QCheck.Gen in
  let range_of_width w_lo w_hi =
    int_range w_lo w_hi >>= fun w ->
    int_range 0 (255 - w) >|= fun lo ->
    Comparison.Char_range (Char.chr lo, Char.chr (lo + w))
  in
  let set_of n_lo n_hi =
    list_size (int_range n_lo n_hi) char_of_int >|= fun cs ->
    Comparison.Char_set (Charset.of_list cs, "s")
  in
  frequency
    [
      (2, char_of_int >|= fun c -> Comparison.Char_eq c);
      ( 1,
        int_range 0 254 >>= fun hi ->
        int_range (hi + 1) 255 >|= fun lo ->
        Comparison.Char_range (Char.chr lo, Char.chr hi) );
      (2, range_of_width 0 15);
      (2, range_of_width 16 255);
      (1, return (Comparison.Char_set (Charset.empty, "empty")));
      (2, set_of 1 12);
      (2, set_of 17 120);
      (1, return (Comparison.Char_set (Charset.full, "full")));
      (1, return (Comparison.Char_set (Charset.printable, "printable")));
      ( 2,
        string_size ~gen:printable (int_range 0 8) >>= fun expected ->
        int_range 0 (String.length expected + 1) >|= fun offset ->
        Comparison.Str_eq { expected; offset } );
    ]

let comparison_list_arb =
  QCheck.make
    ~print:(fun (seed, kinds) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat "; "
           (List.map (fun k -> Format.asprintf "%a" Comparison.pp (mk_cmp k)) kinds)))
    QCheck.Gen.(pair small_nat (list_size (int_range 1 6) kind_gen))

let prop_replacements_match_model =
  QCheck.Test.make ~name:"streamed replacements = list-based model" ~count:1000
    comparison_list_arb (fun (seed, kinds) ->
      let cmps = List.map mk_cmp kinds in
      let r_model = Rng.make seed
      and r_list = Rng.make seed
      and r_iter = Rng.make seed in
      let model = List.map (model_replacements r_model) cmps in
      let listed = List.map (Comparison.replacements r_list) cmps in
      let streamed =
        List.map
          (fun c ->
            let acc = ref [] in
            Comparison.iter_replacements r_iter c.Comparison.kind (fun s ->
                acc := s :: !acc);
            List.rev !acc)
          cmps
      in
      model = listed && model = streamed
      && Rng.state r_model = Rng.state r_list
      && Rng.state r_model = Rng.state r_iter)

let prop_str_eq_every_offset =
  QCheck.Test.make ~name:"Str_eq replacements at every offset" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 10) Gen.printable)
    (fun expected ->
      List.for_all
        (fun offset ->
          let c = mk_cmp (Comparison.Str_eq { expected; offset }) in
          let rng = Rng.make 7 in
          Comparison.replacements rng c = model_replacements (Rng.make 7) c
          && Rng.state rng = Rng.state (Rng.make 7))
        (List.init (String.length expected + 2) Fun.id))

(* {1 Ctx: a toy parser} *)

let toy_registry = Site.create_registry "toy"
let toy_root = Site.block toy_registry "root"
let toy_digit = Site.branch toy_registry "digit?"
let toy_kw = Site.branch toy_registry "kw?"
let toy_inner = Site.block toy_registry "inner"

let rec toy_word ctx acc =
  match Ctx.next ctx with
  | None -> acc
  | Some c -> toy_word ctx (Tstring.append_char acc c)

(* Accepts one digit, or the keyword "hi". *)
let toy_body ctx =
  match Ctx.peek ctx with
  | None -> Ctx.reject ctx "empty"
  | Some c ->
    if Ctx.in_range ctx toy_digit c '0' '9' then begin
      ignore (Ctx.next ctx);
      if not (Ctx.at_eof ctx) then Ctx.reject ctx "trailing"
    end
    else begin
      let word = Ctx.frame ctx toy_inner (toy_word ctx) Tstring.empty in
      if not (Ctx.str_eq ctx toy_kw word "hi") then Ctx.reject ctx "bad keyword"
    end

let toy_parse ctx = Ctx.frame ctx toy_root toy_body ctx

let toy_run input =
  Runner.exec ~registry:toy_registry ~parse:toy_parse ~track_trace:true input

let test_ctx_accept_digit () =
  let run = toy_run "7" in
  Alcotest.(check bool) "accepted" true (Runner.accepted run);
  Alcotest.(check bool) "no eof hunger" false run.eof_access;
  Alcotest.(check bool) "covered root" true
    (Coverage.mem (Site.outcome toy_root true) run.coverage)

let test_ctx_eof_access () =
  let run = toy_run "" in
  Alcotest.(check bool) "rejected" true (not (Runner.accepted run));
  Alcotest.(check bool) "eof access on empty peek" true run.eof_access

let test_ctx_comparisons () =
  let run = toy_run "hx" in
  (* digit check at 0 fails; word = "hx"; str_eq "hi": 'h' matches, 'x'
     mismatches at index 1 with suffix event. *)
  Alcotest.(check bool) "rejected" true (not (Runner.accepted run));
  let idx = Runner.substitution_index run in
  check Alcotest.(option int) "substitution at mismatch" (Some 1) idx;
  let comps = Runner.comparisons_at_last_index run in
  let has_i_suggestion =
    List.exists
      (fun (c : Comparison.t) ->
        match c.kind with Comparison.Char_eq 'i' -> not c.result | _ -> false)
      comps
  in
  Alcotest.(check bool) "suggests 'i' at index 1" true has_i_suggestion

let test_ctx_str_eq_prefix () =
  (* Input "h" is a proper prefix of "hi": the comparison must point one
     past the token with the completing suffix. *)
  let run = toy_run "h" in
  let comps = Runner.comparisons_at_last_index run in
  check Alcotest.(option int) "index just past token" (Some 1)
    (Runner.substitution_index run);
  let rng = Rng.make 1 in
  let repls = List.concat_map (Comparison.replacements rng) comps in
  Alcotest.(check bool) "suggests completing 'i'" true (List.mem "i" repls)

let test_ctx_stack_depth () =
  let run = toy_run "hx" in
  check Alcotest.int "max depth: root + inner" 2 run.max_depth;
  Alcotest.(check bool) "comparison depths recorded" true
    (Array.exists (fun (c : Comparison.t) -> c.stack_depth >= 1) run.comparisons)

let test_ctx_depth_restored_on_reject () =
  let registry = Site.create_registry "depth-restore" in
  let outer = Site.block registry "outer" in
  let ctx = Ctx.make ~registry "x" in
  (try Ctx.frame ctx outer (fun () -> Ctx.reject ctx "boom") ()
   with Ctx.Reject _ -> ());
  check Alcotest.int "depth restored after exception" 0 (Ctx.depth ctx)

(* [Ctx.frame] keeps an exception handler, not a plain enter/leave pair:
   a rejection that unwinds the frame must still log the frame's exit
   and restore the depth, and a body that returns hands its value
   through. *)
let test_ctx_frame () =
  let registry = Site.create_registry "frame" in
  let outer = Site.block registry "outer" in
  let inner = Site.block registry "inner" in
  let ctx = Ctx.make ~registry ~track_frames:true "ab" in
  let rejecting ctx =
    ignore (Ctx.next ctx);
    Ctx.frame ctx inner (fun reason -> Ctx.reject ctx reason) "boom"
  in
  (match Ctx.frame ctx outer rejecting ctx with
   | () -> Alcotest.fail "the body's rejection did not propagate"
   | exception Ctx.Reject reason -> check Alcotest.string "rejection passes" "boom" reason);
  check Alcotest.int "depth restored after the rejection" 0 (Ctx.depth ctx);
  check Alcotest.int "max depth reached" 2 (Ctx.max_depth ctx);
  check Alcotest.(list string) "every frame a rejection unwinds logs its exit"
    [ "enter outer 0"; "enter inner 1"; "exit 1"; "exit 1" ]
    (List.map
       (function
         | Frame.Enter { site; pos } -> Printf.sprintf "enter %s %d" (Site.name site) pos
         | Frame.Exit { pos } -> Printf.sprintf "exit %d" pos)
       (Array.to_list (Ctx.frames ctx)));
  let value = Ctx.frame ctx outer (fun n -> (n * 2, Ctx.depth ctx)) 21 in
  check Alcotest.(pair int int) "the body's value, computed one level deeper"
    (42, 1) value;
  check Alcotest.int "depth restored after a return" 0 (Ctx.depth ctx)

let test_ctx_fuel () =
  let registry = Site.create_registry "fuel" in
  let s = Site.block registry "loop" in
  let parse ctx =
    Ctx.frame ctx s
      (fun () ->
        while true do
          Ctx.tick ctx
        done)
      ()
  in
  let run = Runner.exec ~registry ~parse ~fuel:100 "x" in
  Alcotest.(check bool) "hang verdict" true (run.verdict = Runner.Hang)

let test_ctx_untracked () =
  let ctx = Ctx.make ~registry:toy_registry ~track_comparisons:false "a" in
  (try toy_parse ctx with Ctx.Reject _ -> ());
  check Alcotest.int "no comparison events" 0 (List.length (Ctx.comparisons ctx));
  Alcotest.(check bool) "coverage still recorded" true
    (Coverage.cardinal (Coverage.of_array (Ctx.touched ctx)) > 0)

let test_ctx_untainted_no_event () =
  let registry = Site.create_registry "untainted" in
  let b = Site.branch registry "cmp" in
  let ctx = Ctx.make ~registry "xyz" in
  ignore (Ctx.eq ctx b (Tchar.untainted 'q') 'q');
  check Alcotest.int "constant comparison emits nothing" 0
    (List.length (Ctx.comparisons ctx))

let test_expect_token () =
  let registry = Site.create_registry "expect-token" in
  let b = Site.branch registry "want-while" in
  let ctx = Ctx.make ~registry "do x;" in
  let matched = Ctx.expect_token ctx b ~at:5 ~spelling:"while" ~matched:false in
  Alcotest.(check bool) "returns matched" false matched;
  (match Ctx.comparisons ctx with
   | [ c ] ->
     check Alcotest.int "event at the token position" 5 c.Comparison.index;
     let rng = Rng.make 1 in
     check Alcotest.(list string) "suggests the spelling" [ "while" ]
       (Comparison.replacements rng c)
   | other -> Alcotest.failf "expected one event, got %d" (List.length other));
  (* A matching expectation emits nothing. *)
  let ctx2 = Ctx.make ~registry "while" in
  ignore (Ctx.expect_token ctx2 b ~at:0 ~spelling:"while" ~matched:true);
  check Alcotest.int "match emits no event" 0 (List.length (Ctx.comparisons ctx2))

let test_frames () =
  let ctx = Ctx.make ~registry:toy_registry ~track_frames:true "hi" in
  toy_parse ctx;
  let frames = Ctx.frames ctx in
  check Alcotest.int "enter/exit pairs: root + inner" 4 (Array.length frames);
  (match frames.(0) with
   | Frame.Enter { site; pos } ->
     check Alcotest.string "root first" "root" (Site.name site);
     check Alcotest.int "at position 0" 0 pos
   | Frame.Exit _ -> Alcotest.fail "expected enter");
  match frames.(3) with
  | Frame.Exit { pos } -> check Alcotest.int "root exits at end" 2 pos
  | Frame.Enter _ -> Alcotest.fail "expected exit"

(* {1 Runner helpers} *)

let test_trace_and_path () =
  let r1 = toy_run "3" and r2 = toy_run "hx" in
  Alcotest.(check bool) "traces nonempty" true
    (Array.length r1.trace > 0 && Array.length r2.trace > 0);
  Alcotest.(check bool) "different paths hash differently" true
    (Runner.path_hash r1 <> Runner.path_hash r2);
  check Alcotest.int "same input same hash" (Runner.path_hash r1)
    (Runner.path_hash (toy_run "3"))

let test_avg_stack () =
  let run = toy_run "hx" in
  Alcotest.(check bool) "avg stack positive" true (Runner.avg_stack_of_last_two run > 0.0);
  let empty_run = toy_run "" in
  check (Alcotest.float 1e-9) "no comparisons -> 0" 0.0
    (Runner.avg_stack_of_last_two empty_run)

let test_coverage_up_to () =
  let run = toy_run "hx" in
  let upto = Runner.coverage_up_to_last_index run in
  Alcotest.(check bool) "prefix coverage is a subset" true
    (Coverage.cardinal (Coverage.diff upto run.coverage) = 0);
  Alcotest.(check bool) "prefix coverage nonempty" true (Coverage.cardinal upto > 0)

(* {1 Substitution-index edge cases}

   The search derives every new candidate from [substitution_index] and
   [comparisons_at_last_index]; these pin down the boundary behaviours
   the algorithm depends on. *)

let test_subst_empty_input () =
  (* EOF-only run: the empty input dies on the first peek without a
     single comparison, so there is no substitution point — only the
     EOF-hunger flag. *)
  let run = toy_run "" in
  check Alcotest.(option int) "no comparisons, no index" None
    (Runner.substitution_index run);
  check Alcotest.int "no comparisons at last index" 0
    (List.length (Runner.comparisons_at_last_index run));
  Alcotest.(check bool) "run is eof-hungry" true run.eof_access

let test_subst_index_zero () =
  (* "x" fails both the digit probe and the keyword comparison at input
     index 0: Some 0 must not be conflated with None. *)
  let run = toy_run "x" in
  check Alcotest.(option int) "substitution at the first character" (Some 0)
    (Runner.substitution_index run);
  let comps = Runner.comparisons_at_last_index run in
  Alcotest.(check bool) "events reported at index 0" true (comps <> []);
  Alcotest.(check bool) "all events sit at index 0" true
    (List.for_all (fun (c : Comparison.t) -> c.index = 0) comps)

let test_subst_all_successful () =
  (* An accepted run has no failed comparison; the index falls back to
     the rightmost compared position. *)
  let run = toy_run "7" in
  Alcotest.(check bool) "accepted" true (Runner.accepted run);
  check Alcotest.(option int) "rightmost successful comparison" (Some 0)
    (Runner.substitution_index run)

let test_subst_untainted_last () =
  (* The chronologically last comparison involves only an untainted
     constant, which emits no event — the substitution point must stay
     at the last tainted comparison. *)
  let registry = Site.create_registry "untainted-last" in
  let tainted = Site.branch registry "tainted" in
  let const = Site.branch registry "const" in
  let parse ctx =
    (match Ctx.next ctx with
     | Some c -> ignore (Ctx.eq ctx tainted c 'a')
     | None -> ());
    ignore (Ctx.eq ctx const (Tchar.untainted 'z') 'z')
  in
  let run = Runner.exec ~registry ~parse "q" in
  check Alcotest.(option int) "index of the tainted comparison" (Some 0)
    (Runner.substitution_index run);
  check Alcotest.int "one event at it" 1
    (List.length (Runner.comparisons_at_last_index run))

(* [substitution_index] against the fold it replaced, on random logs
   (empty and all-successful ones included). *)
let model_substitution_index (run : Runner.run) =
  let max_index_where pred =
    Array.fold_left
      (fun acc (c : Comparison.t) ->
        if pred c then
          match acc with None -> Some c.index | Some i -> Some (max i c.index)
        else acc)
      None run.comparisons
  in
  match max_index_where (fun c -> not c.result) with
  | Some _ as failed -> failed
  | None -> max_index_where (fun _ -> true)

let run_of_log log =
  {
    Runner.input = "";
    verdict = Runner.Rejected "synthetic";
    comparisons =
      Array.of_list
        (List.map
           (fun (index, result) -> mk_cmp ~index ~result (Comparison.Char_eq 'x'))
           log);
    coverage = Coverage.empty;
    trace = [||];
    touched = [||];
    eof_access = false;
    max_depth = 0;
    frames = [||];
  }

let prop_substitution_index_model =
  QCheck.Test.make ~name:"substitution_index = fold model" ~count:1000
    QCheck.(
      pair bool (small_list (pair (int_range 0 24) bool)))
    (fun (all_ok, log) ->
      let log = if all_ok then List.map (fun (i, _) -> (i, true)) log else log in
      let run = run_of_log log in
      Runner.substitution_index run = model_substitution_index run)

let test_substitution_index_edges () =
  check Alcotest.(option int) "empty log" None
    (Runner.substitution_index (run_of_log []));
  check Alcotest.(option int) "all successful: rightmost compared" (Some 9)
    (Runner.substitution_index (run_of_log [ (3, true); (9, true); (4, true) ]));
  check Alcotest.(option int) "failed beats a later success" (Some 4)
    (Runner.substitution_index (run_of_log [ (4, false); (9, true); (2, false) ]))

(* {1 Snapshot / resume} *)

module Subject = Pdf_subjects.Subject

let run_equal (a : Runner.run) (b : Runner.run) =
  a.input = b.input && a.verdict = b.verdict
  && a.comparisons = b.comparisons
  && Coverage.equal a.coverage b.coverage
  && a.trace = b.trace && a.touched = b.touched
  && a.eof_access = b.eof_access && a.max_depth = b.max_depth
  && a.frames = b.frames

(* The journaled engine runs a test-local machine-form recognizer:
   balanced round and square brackets, read only through
   [Machine.Peek]/[Next] steps, with a frame per group, so snapshots
   carry stack depth and frame events, and a trailing-input check whose
   peek at the end of an accepted input is its EOF probe. *)

module Machine = Pdf_instr.Machine

let brackets = Site.create_registry "brackets"
let br_s_group = Site.block brackets "group"
let br_open_round = Site.branch brackets "open-(?"
let br_open_square = Site.branch brackets "open-[?"
let br_close = Site.branch brackets "close"
let br_trailing = Site.branch brackets "trailing?"

(* Groups while the next character opens one, then [k]. Continuations
   take the context as an argument and capture none, so every pending
   step is multi-shot. *)
let rec br_seq k _ctx =
  Machine.Peek
    (fun c ctx ->
      match c with
      | Some c when Ctx.eq ctx br_open_round c '(' -> br_group ')' k ctx
      | Some c when Ctx.eq ctx br_open_square c '[' -> br_group ']' k ctx
      | Some _ | None -> k ctx)

and br_group close k ctx =
  Ctx.enter_frame ctx br_s_group;
  Machine.Next (fun _ ctx -> br_seq (br_closing close k) ctx)

and br_closing close k _ctx =
  Machine.Next
    (fun c ctx ->
      match c with
      | Some c when Ctx.eq ctx br_close c close ->
        Ctx.exit_frame ctx;
        br_seq k ctx
      | Some _ | None -> Ctx.reject ctx "unbalanced")

let br_machine : Machine.recognizer =
  br_seq (fun _ ->
      Machine.Peek
        (fun c ctx ->
          if Ctx.branch ctx br_trailing (Option.is_some c) then
            Ctx.reject ctx "trailing input"
          else Machine.Done))

let exec_brackets input =
  Runner.exec_machine ~registry:brackets ~machine:br_machine ~track_trace:true
    ~track_frames:true input

let test_brackets_machine () =
  (* The recognizer is what the snapshot tests take it for. *)
  let verdict input = Runner.accepted (fst (exec_brackets input)) in
  List.iter
    (fun input -> Alcotest.(check bool) (input ^ " accepted") true (verdict input))
    [ ""; "()"; "([()][])"; "([()][])[[()]]()" ];
  List.iter
    (fun input -> Alcotest.(check bool) (input ^ " rejected") false (verdict input))
    [ "("; "(]"; "()#"; "((" ];
  let run, _ = exec_brackets "([()])" in
  check Alcotest.int "a frame per open group" 3 run.Runner.max_depth;
  Alcotest.(check bool) "the final peek reads EOF" true run.Runner.eof_access

let test_snapshot_resume_identity () =
  (* Resuming from the snapshot at any position — on the same input or
     on one that diverges right after the prefix — is bit-identical to a
     full execution. *)
  let input = "([()][])[]" in
  let full, journal = exec_brackets input in
  for p = 1 to String.length input do
    match Runner.snapshot_at journal p with
    | None -> Alcotest.failf "no snapshot at position %d" p
    | Some snap ->
      check Alcotest.int "snapshot position" p (Runner.snapshot_pos snap);
      let resumed, _ = Runner.resume snap input in
      Alcotest.(check bool)
        (Printf.sprintf "identical resume at %d" p)
        true (run_equal full resumed);
      let mutated = String.sub input 0 p ^ "#" in
      let mutated_full, _ = exec_brackets mutated in
      let mutated_resumed, _ = Runner.resume snap mutated in
      Alcotest.(check bool)
        (Printf.sprintf "identical diverging resume at %d" p)
        true
        (run_equal mutated_full mutated_resumed)
  done

let test_snapshot_unread_positions () =
  (* "()#" rejects at the trailing '#', so position 3 is never read and
     has no snapshot; every read position has one. *)
  let _run, journal = exec_brackets "()#" in
  Alcotest.(check bool) "read position has a snapshot" true
    (Runner.snapshot_at journal 2 <> None);
  Alcotest.(check bool) "unread position has none" true
    (Runner.snapshot_at journal 3 = None)

let test_resume_chains () =
  (* A resumed run's journal covers the new suffix, so grandchildren can
     resume from a child's snapshot. *)
  let parent = "((" in
  let child = "(()" in
  let grandchild = "(())" in
  let _, j0 = exec_brackets parent in
  let snap0 = Option.get (Runner.snapshot_at j0 (String.length parent)) in
  let _, j1 = Runner.resume snap0 child in
  let snap1 = Option.get (Runner.snapshot_at j1 (String.length child)) in
  let resumed, _ = Runner.resume snap1 grandchild in
  let full, _ = exec_brackets grandchild in
  Alcotest.(check bool) "grandchild identical via two hops" true
    (run_equal full resumed)

let test_prefix_cache_direct_mapped () =
  (* Snapshots told apart by their prefix position. *)
  let snap =
    let _, j = exec_brackets "([])" in
    fun pos -> Option.get (Runner.snapshot_at j pos)
  in
  let pos found = Option.map Runner.snapshot_pos found in
  let cache = Runner.Cache.create ~bound:2 () in
  (* Two slots: [a] and [b] share one, [c] has the other. *)
  let slot k = Pdf_util.Fnv.string k land 1 in
  let letters = List.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
  let a = List.hd letters in
  let b = List.find (fun k -> k <> a && slot k = slot a) letters in
  let c = List.find (fun k -> slot k <> slot a) letters in
  Runner.Cache.store cache a (snap 1);
  Runner.Cache.store cache c (snap 2);
  check Alcotest.int "both resident" 2 (Runner.Cache.length cache);
  check Alcotest.(option int) "a found" (Some 1) (pos (Runner.Cache.find cache a));
  check Alcotest.(option int) "c found" (Some 2) (pos (Runner.Cache.find cache c));
  Runner.Cache.store cache b (snap 3);
  check Alcotest.int "colliding store keeps the length" 2 (Runner.Cache.length cache);
  check Alcotest.(option int) "a replaced" None (pos (Runner.Cache.find cache a));
  check Alcotest.(option int) "b resident" (Some 3) (pos (Runner.Cache.find cache b));
  check Alcotest.(option int) "other slot untouched" (Some 2)
    (pos (Runner.Cache.find cache c));
  (* A store of an equal key keeps the first snapshot. *)
  Runner.Cache.store cache b (snap 1);
  check Alcotest.(option int) "first store wins" (Some 3)
    (pos (Runner.Cache.find cache b));
  check Alcotest.int "equal key does not grow" 2 (Runner.Cache.length cache);
  let s = Runner.Cache.stats cache in
  check Alcotest.int "hits" 5 s.Runner.Cache.hits;
  check Alcotest.int "misses" 1 s.Runner.Cache.misses;
  check Alcotest.int "evictions" 1 s.Runner.Cache.evictions;
  check Alcotest.int "chars saved" 5 s.Runner.Cache.chars_saved

(* {2 The direct-mapped cache against a slot-array model}

   Random operation sequences over bounds 1-8 and keys from a 2-3
   letter alphabet, so several keys share a slot and replace each
   other. The model is an array of optional (key, snapshot) pairs
   indexed by the key's FNV hash, with the same counters. After every
   step the two agree on membership of every key the alphabet can
   spell, on the length and on all four counters; lookups must return
   the snapshot the model holds (snapshots are told apart by their
   prefix position). *)

let cache_pool_input = "([()][])[[()]]()"

let cache_pool =
  let _, j = exec_brackets cache_pool_input in
  Array.init (String.length cache_pool_input) (fun p ->
      Option.get (Runner.snapshot_at j (p + 1)))

type cache_op =
  | Store of string * int  (* key, pool index of the snapshot *)
  | Find of string
  | Find_prefix of string * int
  | Mem_prefix of string * int

let pp_cache_op = function
  | Store (k, v) -> Printf.sprintf "store %S #%d" k v
  | Find k -> Printf.sprintf "find %S" k
  | Find_prefix (s, n) -> Printf.sprintf "find_prefix %S ~len:%d" s n
  | Mem_prefix (s, n) -> Printf.sprintf "mem_prefix %S ~len:%d" s n

let all_keys alphabet =
  let rec words n =
    if n = 0 then [ "" ]
    else
      List.concat_map
        (fun w -> List.map (fun c -> w ^ String.make 1 c) alphabet)
        (words (n - 1))
  in
  List.concat_map words [ 0; 1; 2; 3 ]

let cache_case_gen =
  let open QCheck.Gen in
  int_range 1 8 >>= fun bound ->
  oneofl [ [ 'a'; 'b' ]; [ 'a'; 'b'; 'c' ] ] >>= fun alphabet ->
  let key = int_range 0 3 >>= fun n -> string_size ~gen:(oneofl alphabet) (return n) in
  let prefixed =
    int_range 0 4 >>= fun n ->
    string_size ~gen:(oneofl alphabet) (return n) >>= fun s ->
    int_range 0 (String.length s) >|= fun len -> (s, len)
  in
  let op =
    frequency
      [
        (5, pair key (int_range 0 (Array.length cache_pool - 1)) >|= fun (k, v) -> Store (k, v));
        (2, key >|= fun k -> Find k);
        (3, prefixed >|= fun (s, n) -> Find_prefix (s, n));
        (2, prefixed >|= fun (s, n) -> Mem_prefix (s, n));
      ]
  in
  list_size (int_range 1 60) op >|= fun ops -> (bound, alphabet, ops)

let cache_case_arb =
  QCheck.make
    ~print:(fun (bound, alphabet, ops) ->
      Printf.sprintf "bound %d, alphabet %s: %s" bound
        (String.of_seq (List.to_seq alphabet))
        (String.concat "; " (List.map pp_cache_op ops)))
    cache_case_gen

type slot_model = {
  slots : (string * int) option array;  (* power-of-two length *)
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_evictions : int;
  mutable m_saved : int;
}

let model_slot m key = Pdf_util.Fnv.string key land (Array.length m.slots - 1)

let model_mem m key =
  match m.slots.(model_slot m key) with Some (k, _) -> k = key | None -> false

let model_find m key =
  match m.slots.(model_slot m key) with
  | Some (k, v) when k = key ->
    m.m_hits <- m.m_hits + 1;
    m.m_saved <- m.m_saved + String.length key;
    Some v
  | _ ->
    m.m_misses <- m.m_misses + 1;
    None

let model_store m key v =
  let i = model_slot m key in
  match m.slots.(i) with
  | Some (k, _) when k = key -> ()
  | resident ->
    if resident <> None then m.m_evictions <- m.m_evictions + 1;
    m.slots.(i) <- Some (key, v)

let pool_id snap = Runner.snapshot_pos snap - 1

let prop_cache_model =
  QCheck.Test.make ~name:"direct-mapped cache = slot-array model" ~count:500
    cache_case_arb (fun (bound, alphabet, ops) ->
      let cache = Runner.Cache.create ~bound () in
      (* The largest power of two within [bound]. *)
      let rec slots n = if 2 * n <= bound then slots (2 * n) else n in
      let m =
        {
          slots = Array.make (slots 1) None;
          m_hits = 0;
          m_misses = 0;
          m_evictions = 0;
          m_saved = 0;
        }
      in
      let keys = all_keys alphabet in
      let agree () =
        let s = Runner.Cache.stats cache in
        List.for_all
          (fun k ->
            Runner.Cache.mem_prefix cache (k ^ "zz") ~len:(String.length k)
            = model_mem m k)
          keys
        && Runner.Cache.length cache
           = Array.fold_left (fun n e -> if e = None then n else n + 1) 0 m.slots
        && s.Runner.Cache.hits = m.m_hits
        && s.Runner.Cache.misses = m.m_misses
        && s.Runner.Cache.evictions = m.m_evictions
        && s.Runner.Cache.chars_saved = m.m_saved
      in
      let step op =
        let same_lookup got want = Option.map pool_id got = want in
        (match op with
         | Store (k, v) ->
           Runner.Cache.store cache k cache_pool.(v);
           model_store m k v;
           true
         | Find k -> same_lookup (Runner.Cache.find cache k) (model_find m k)
         | Find_prefix (s, len) ->
           same_lookup
             (Runner.Cache.find_prefix cache s ~len)
             (model_find m (String.sub s 0 len))
         | Mem_prefix (s, len) ->
           Runner.Cache.mem_prefix cache s ~len = model_mem m (String.sub s 0 len))
        && agree ()
      in
      List.for_all step ops)

(* {1 Crash containment}

   The exception contract of runner.mli: any exception a subject raises
   — other than [Ctx.Reject] and [Ctx.Out_of_fuel] — surfaces as a
   [Crash] verdict, in both the direct-style and the machine-form
   execution paths, with an (exception, site) identity that separates
   distinct raise points and coincides for the same raise point. *)

let test_crash_containment () =
  let registry = Site.create_registry "crashy" in
  let a = Site.branch registry "a" in
  let b = Site.branch registry "b" in
  let direct parse = (Runner.exec ~registry ~parse "x").Runner.verdict in
  let v_fail =
    direct (fun ctx ->
        ignore (Ctx.branch ctx a true);
        failwith "boom")
  in
  let v_deep =
    direct (fun ctx ->
        ignore (Ctx.branch ctx a true);
        ignore (Ctx.branch ctx b true);
        failwith "boom")
  in
  let v_arg =
    direct (fun ctx ->
        ignore (Ctx.branch ctx a true);
        invalid_arg "bad")
  in
  let machine_run, _journal =
    Runner.exec_machine ~registry
      ~machine:(fun ctx ->
        ignore (Ctx.branch ctx a true);
        failwith "boom")
      "x"
  in
  (match (v_fail, v_deep, v_arg, machine_run.Runner.verdict) with
   | Runner.Crash c1, Runner.Crash c2, Runner.Crash c3, Runner.Crash cm ->
     check Alcotest.string "constructor name"
       (Printexc.exn_slot_name (Failure "boom"))
       c1.Runner.exn;
     check Alcotest.string "same exception, same label" c1.Runner.exn
       c2.Runner.exn;
     Alcotest.(check bool) "different raise points get different sites" true
       (c1.Runner.site <> c2.Runner.site);
     Alcotest.(check bool) "different exceptions get different identities" true
       (Runner.crash_id c3 <> Runner.crash_id c1);
     check Alcotest.string "machine form crashes with the same identity"
       (Runner.crash_id c1) (Runner.crash_id cm)
   | _ -> Alcotest.fail "a raising subject did not yield a Crash verdict");
  (* The two blessed control-flow exceptions keep their own verdicts. *)
  (match direct (fun ctx -> Ctx.reject ctx "no") with
   | Runner.Rejected _ -> ()
   | v -> Alcotest.failf "Reject mapped to %a" Runner.pp_verdict v);
  match direct (fun _ -> raise Ctx.Out_of_fuel) with
  | Runner.Hang -> ()
  | v -> Alcotest.failf "Out_of_fuel mapped to %a" Runner.pp_verdict v

(* A crash reached through a cached resume has the same identity as the
   same crash reached by full execution: the site hash covers only the
   outcomes touched, which are bit-identical either way. *)
let test_crash_identity_stable_across_resume () =
  let registry = Site.create_registry "resumable-crash" in
  let a = Site.branch registry "a" in
  let machine _ctx =
    let open Pdf_instr.Machine in
    Next
      (fun c ctx ->
        match c with
        | Some t when Tchar.code t = Char.code '{' ->
          Next
            (fun _ ctx ->
              ignore (Ctx.branch ctx a true);
              failwith "late boom")
        | _ -> Ctx.reject ctx "want {")
  in
  let full, journal = Runner.exec_machine ~registry ~machine "{x" in
  let snap = Option.get (Runner.snapshot_at journal 1) in
  let resumed, _ = Runner.resume snap "{x" in
  match (full.Runner.verdict, resumed.Runner.verdict) with
  | Runner.Crash cf, Runner.Crash cr ->
    check Alcotest.string "crash identity stable across resume"
      (Runner.crash_id cf) (Runner.crash_id cr)
  | _ -> Alcotest.fail "crash not contained on both paths"

(* {1 Cross-subject invariants} *)

let printable_gen =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 16) QCheck.Gen.printable

let subject_invariants (subject : Pdf_subjects.Subject.t) =
  QCheck.Test.make
    ~name:(Printf.sprintf "instrumentation invariants hold on %s" subject.name)
    ~count:300 printable_gen
    (fun input ->
      let run =
        Pdf_subjects.Subject.run ~track_trace:true ~track_frames:true subject
          input
      in
      (* Coverage is the set of trace outcomes. *)
      let trace_cov = Coverage.of_list (Array.to_list run.trace) in
      let cov_ok = Coverage.equal trace_cov run.coverage in
      (* Every comparison's trace position lies within the trace. *)
      let pos_ok =
        Array.for_all
          (fun (c : Comparison.t) ->
            c.trace_pos >= 0 && c.trace_pos <= Array.length run.trace)
          run.comparisons
      in
      (* Comparison indices stay within (or just past) the input. *)
      let idx_ok =
        Array.for_all
          (fun (c : Comparison.t) ->
            c.index >= 0 && c.index <= String.length input)
          run.comparisons
      in
      (* Frames balance on accepted runs. *)
      let balance =
        Array.fold_left
          (fun acc event ->
            match event with Frame.Enter _ -> acc + 1 | Frame.Exit _ -> acc - 1)
          0 run.frames
      in
      let frames_ok = (not (Runner.accepted run)) || balance = 0 in
      cov_ok && pos_ok && idx_ok && frames_ok)

let invariant_tests =
  List.map (fun s -> qtest (subject_invariants s)) Pdf_subjects.Catalog.all

(* [Hits.record] grows its counts once per run, to the length that
   growing for each outcome in turn reaches: a counter fed whole runs
   marshals to the same bytes as one fed their outcomes one at a time,
   capacity included, since campaign summaries digest a result's
   Marshal form. *)
let prop_hits_record_per_outcome =
  QCheck.Test.make ~name:"hits: a run grows the counts as its outcomes would"
    ~count:200
    QCheck.(list (array_of_size Gen.(int_range 0 12) (int_range 0 300)))
    (fun runs ->
      let whole = Pdf_instr.Hits.create () and single = Pdf_instr.Hits.create () in
      List.iter
        (fun touched ->
          Pdf_instr.Hits.record whole touched;
          Array.iter (fun oid -> Pdf_instr.Hits.record single [| oid |]) touched)
        runs;
      Marshal.to_string whole [] = Marshal.to_string single []
      && Pdf_instr.Hits.to_list whole = Pdf_instr.Hits.to_list single)

(* {1 A reused context}

   A campaign runs every execution in one context, reset per input. Each run through it must package to exactly
   what a fresh context records: every subject, a random sequence of
   (mostly rejected) inputs with some valid ones, a subject crash and a
   fuel-starved hang dealt in by [Fault.subject], and, on tinyc, a
   program that exhausts its fuel for real. The view over the context
   must derive what the packaged run does. *)

module Fault = Pdf_fault.Fault
module View = Runner.View

let reset_corpus (s : Subject.t) rng =
  let random () =
    String.init (Pdf_util.Rng.int rng 12) (fun _ -> Pdf_util.Rng.printable rng)
  in
  let found =
    (Pdf_core.Pfuzzer.fuzz
       { Pdf_core.Pfuzzer.default_config with seed = 3; max_executions = 1500 }
       s)
      .valid_inputs
  in
  let hang = if String.starts_with ~prefix:"tinyc" s.name then [ "while(1);" ] else [] in
  List.concat_map (fun v -> [ random (); v; random () ]) (found @ hang)
  @ List.init 40 (fun _ -> random ())

let test_reset_equivalence () =
  let rng = Pdf_util.Rng.make 11 in
  List.iter
    (fun (s : Subject.t) ->
      let plan () = Fault.of_list [ (4, Fault.Raise "reset drill"); (7, Fault.Starve_fuel) ] in
      (* Two wrappers, called in lockstep, fault on the same inputs. *)
      let reused = Fault.subject (plan ()) s and fresh = Fault.subject (plan ()) s in
      let ctx = Ctx.make ~registry:s.registry ~fuel:s.fuel "" in
      let v = View.create () in
      let verdicts = Hashtbl.create 4 in
      List.iteri
        (fun i input ->
          Ctx.reset ctx input;
          let verdict = Runner.run_in ctx ~parse:reused.parse in
          View.of_ctx v ctx verdict;
          let got = Runner.package ctx verdict in
          let want = Subject.run fresh input in
          let what = Printf.sprintf "%s run %d %S" s.name i input in
          Hashtbl.replace verdicts
            (match want.verdict with
             | Runner.Accepted -> "accepted"
             | Rejected _ -> "rejected"
             | Hang -> "hang"
             | Crash _ -> "crash")
            ();
          check Alcotest.bool (what ^ ": verdict and reason") true (got.verdict = want.verdict);
          check Alcotest.bool (what ^ ": comparisons") true
            (got.comparisons = want.comparisons);
          check Alcotest.(array int) (what ^ ": touched") want.touched got.touched;
          check Alcotest.bool (what ^ ": coverage") true
            (Coverage.equal got.coverage want.coverage);
          check Alcotest.bool (what ^ ": eof access") want.eof_access got.eof_access;
          check Alcotest.int (what ^ ": max depth") want.max_depth got.max_depth;
          check Alcotest.int (what ^ ": view substitution index")
            (Option.value (Runner.substitution_index want) ~default:(-1))
            (View.substitution_index v);
          (match Runner.substitution_index want with
           | None -> ()
           | Some index ->
             check Alcotest.bool (what ^ ": view coverage cut") true
               (Coverage.equal (View.coverage_up_to v ~index)
                  (Runner.coverage_up_to want ~index)));
          check (Alcotest.float 0.0) (what ^ ": view stack depth")
            (Runner.avg_stack_of_last_two want) (View.avg_stack_of_last_two v);
          check Alcotest.int (what ^ ": view path hash") (Runner.path_hash want)
            (View.path_hash v);
          check Alcotest.bool (what ^ ": view coverage") true
            (Coverage.equal (View.coverage v) want.coverage);
          let baseline = Coverage.of_list [ 0; 3; 5 ] in
          check Alcotest.int (what ^ ": view new outcomes")
            (Coverage.new_against want.coverage ~baseline)
            (View.new_outcomes v ~baseline))
        (reset_corpus s rng);
      List.iter
        (fun kind ->
          check Alcotest.bool (s.name ^ " corpus has a " ^ kind) true
            (Hashtbl.mem verdicts kind))
        [ "accepted"; "rejected"; "hang"; "crash" ])
    Pdf_subjects.Catalog.all

(* {1 Interned input characters}

   A read returns the shared tainted character of its position and
   byte, from a process-wide table filled on demand: equal pairs give
   physically equal values in every run of every context, below the
   position bound; past it a read builds a fresh value, which must
   still carry the right character and taint. *)

module Taint = Pdf_taint.Taint

let interned_corpus (s : Subject.t) =
  let rng = Rng.make 30 in
  let spellings = List.map (fun (t : Pdf_subjects.Token.t) -> t.tag) s.tokens in
  spellings
  @ List.init 40 (fun _ -> String.init (Rng.int rng 16) (fun _ -> Rng.printable rng))

let check_read what i c (v : Tchar.t option) =
  match v with
  | None -> Alcotest.failf "%s: no character at %d" what i
  | Some t ->
    check Alcotest.char (what ^ ": character") c t.ch;
    check Alcotest.(list int) (what ^ ": taint") [ i ] (Taint.to_list t.taint)

let test_interned_reads () =
  List.iter
    (fun (s : Subject.t) ->
      let seen = Hashtbl.create 256 in
      let a = Ctx.make ~registry:s.registry ~fuel:s.fuel ""
      and b = Ctx.make ~registry:s.registry ~fuel:s.fuel "" in
      let walk ctx input =
        Ctx.reset ctx input;
        String.iteri
          (fun i c ->
            let what = Printf.sprintf "%s %S at %d" s.name input i in
            let p = Ctx.peek ctx in
            check_read what i c p;
            (match Hashtbl.find_opt seen (i, c) with
             | Some v -> check Alcotest.bool (what ^ ": shared") true (v == p)
             | None -> Hashtbl.replace seen (i, c) p);
            check Alcotest.bool (what ^ ": peek again") true (Ctx.peek ctx == p);
            check Alcotest.bool (what ^ ": next") true (Ctx.next ctx == p))
          input
      in
      List.iter
        (fun input ->
          (* The subject's own parse reads first, through either context. *)
          Ctx.reset a input;
          ignore (Runner.run_in a ~parse:s.parse);
          walk a input;
          walk b input;
          walk a input)
        (interned_corpus s))
    Pdf_subjects.Catalog.all

(* A json array of 100 elements reaches position 201, past the bound:
   the reads there, the keyword token cut there and the comparisons it
   logs carry the right characters and positions. *)
let test_past_the_bound () =
  let json = Pdf_subjects.Catalog.find "json" in
  let elements = String.concat "," (List.init 100 (fun _ -> "1")) in
  let valid = "[" ^ elements ^ "]" and broken = "[" ^ elements ^ ",tru]" in
  check Alcotest.bool "bound is below the input" true
    (Tchar.interned_positions < String.length valid - 1);
  let ctx = Ctx.make ~registry:json.registry valid in
  String.iteri
    (fun i c -> check_read (Printf.sprintf "read at %d" i) i c (Ctx.next ctx))
    valid;
  check Alcotest.bool "accepted" true (Runner.accepted (Subject.run json valid));
  let run = Subject.run json broken in
  let last = String.length broken - 2 in
  check Alcotest.(option int) "substitution at the keyword's end" (Some (last + 1))
    (Runner.substitution_index run);
  let suggests_e =
    List.exists
      (fun (c : Comparison.t) -> c.kind = Comparison.Char_eq 'e' && not c.result)
      (Runner.comparisons_at_last_index run)
  in
  check Alcotest.bool "suggests completing 'e'" true suggests_e;
  let tok = Tstring.of_input broken (last - 2) 3 in
  check Alcotest.string "token" "tru" (Tstring.to_string tok);
  check Alcotest.(list int) "token taint" [ last - 2; last - 1; last ]
    (Taint.to_list (Tstring.taint tok))

(* Two domains parse at once and share the table while they fill it:
   this case runs first, before any other case reads input, so the
   domains build most of the rows and entries they read (only a
   sixteen-character bracket parse at module initialisation reads
   before them). Every run must observe what the same run does
   sequentially. *)
let observation (r : Runner.run) =
  ( Format.asprintf "%a" Runner.pp_verdict r.verdict,
    r.comparisons,
    r.touched,
    r.trace,
    r.eof_access,
    r.max_depth,
    Array.map
      (function
        | Frame.Enter { site; pos } -> (Site.name site, pos)
        | Frame.Exit { pos } -> ("", pos))
      r.frames )

let test_concurrent_reads () =
  let rng = Rng.make 31 in
  let chunks =
    List.concat_map
      (fun (s : Subject.t) ->
        List.init 2 (fun _ ->
            ( s,
              List.init 60 (fun _ ->
                  String.init (Rng.int rng 140) (fun _ -> Rng.printable rng)) )))
      Pdf_subjects.Catalog.all
  in
  let observe ((s : Subject.t), inputs) =
    List.map
      (fun input -> observation (Subject.run ~track_trace:true ~track_frames:true s input))
      inputs
  in
  let parallel = Pdf_eval.Parallel.map_retry ~jobs:2 ~retries:0 observe chunks in
  let sequential = List.map observe chunks in
  List.iteri
    (fun i (p, want) ->
      match p with
      | Error e -> Alcotest.failf "chunk %d raised %s" i (Printexc.to_string e)
      | Ok got -> check Alcotest.bool (Printf.sprintf "chunk %d" i) true (got = want))
    (List.combine parallel sequential)

let () =
  Alcotest.run "pdf_instr"
    [
      ( "interned reads",
        [
          Alcotest.test_case "two domains read as one" `Quick test_concurrent_reads;
          Alcotest.test_case "shared per position and byte" `Quick test_interned_reads;
          Alcotest.test_case "past the position bound" `Quick test_past_the_bound;
        ] );
      ( "site",
        [
          Alcotest.test_case "registry" `Quick test_site_registry;
          Alcotest.test_case "outcome names" `Quick test_site_outcome_names;
        ] );
      ("coverage", [ Alcotest.test_case "set operations" `Quick test_coverage ]);
      ("hits", [ qtest prop_hits_record_per_outcome ]);
      ( "comparison",
        [
          Alcotest.test_case "replacements" `Quick test_replacements;
          qtest prop_replacements_match_model;
          qtest prop_str_eq_every_offset;
          qtest prop_char_constraint;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "accepts digit" `Quick test_ctx_accept_digit;
          Alcotest.test_case "eof access" `Quick test_ctx_eof_access;
          Alcotest.test_case "comparison log" `Quick test_ctx_comparisons;
          Alcotest.test_case "str_eq prefix suffix" `Quick test_ctx_str_eq_prefix;
          Alcotest.test_case "stack depth" `Quick test_ctx_stack_depth;
          Alcotest.test_case "depth restored on reject" `Quick test_ctx_depth_restored_on_reject;
          Alcotest.test_case "frame: exit on reject, value otherwise" `Quick
            test_ctx_frame;
          Alcotest.test_case "fuel exhaustion" `Quick test_ctx_fuel;
          Alcotest.test_case "untracked mode" `Quick test_ctx_untracked;
          Alcotest.test_case "constants emit no events" `Quick test_ctx_untainted_no_event;
          Alcotest.test_case "expect_token (7.2)" `Quick test_expect_token;
          Alcotest.test_case "frame events" `Quick test_frames;
        ] );
      ( "runner",
        [
          Alcotest.test_case "trace and path hash" `Quick test_trace_and_path;
          Alcotest.test_case "avg stack" `Quick test_avg_stack;
          Alcotest.test_case "coverage up to last index" `Quick test_coverage_up_to;
          Alcotest.test_case "substitution: empty input" `Quick test_subst_empty_input;
          Alcotest.test_case "substitution: index 0" `Quick test_subst_index_zero;
          Alcotest.test_case "substitution: all successful" `Quick test_subst_all_successful;
          Alcotest.test_case "substitution: untainted last" `Quick test_subst_untainted_last;
          Alcotest.test_case "substitution: synthetic logs" `Quick
            test_substitution_index_edges;
          qtest prop_substitution_index_model;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "the test recognizer" `Quick test_brackets_machine;
          Alcotest.test_case "resume identity at every position" `Quick
            test_snapshot_resume_identity;
          Alcotest.test_case "unread positions have no snapshot" `Quick
            test_snapshot_unread_positions;
          Alcotest.test_case "resume chains" `Quick test_resume_chains;
          Alcotest.test_case "prefix cache direct-mapped" `Quick
            test_prefix_cache_direct_mapped;
          qtest prop_cache_model;
        ] );
      ( "reused context",
        [ Alcotest.test_case "reset equals a fresh context" `Quick test_reset_equivalence ] );
      ( "crash containment",
        [
          Alcotest.test_case "contract: direct and machine form" `Quick
            test_crash_containment;
          Alcotest.test_case "identity stable across resume" `Quick
            test_crash_identity_stable_across_resume;
        ] );
      ("invariants", invariant_tests);
    ]
