(* Bringing your own parser.

   This is the integration path a downstream user follows: write a
   recursive-descent parser against the instrumented stream API
   (Pdf_instr.Ctx), declare its sites, wrap it as a Subject, and fuzz
   it. The parser here accepts semantic versions such as
   "1.2.3-alpha.1+build7".

   Run with: dune exec examples/custom_subject.exe *)

module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset
module Helpers = Pdf_subjects.Helpers

let registry = Site.create_registry "semver"
let s_parse = Site.block registry "parse"
let s_number = Site.block registry "number"
let s_ident = Site.block registry "identifier"
let b_digit = Site.branch registry "digit?"
let b_dot1 = Site.branch registry "dot-minor"
let b_dot2 = Site.branch registry "dot-patch"
let b_prerelease = Site.branch registry "prerelease?"
let b_build = Site.branch registry "build?"
let b_ident_char = Site.branch registry "ident-char?"
let b_ident_sep = Site.branch registry "ident-sep?"
let b_trailing = Site.branch registry "trailing?"

let ident_chars = Charset.union Charset.letters (Charset.union Charset.digits (Charset.singleton '-'))

(* Every comparison goes through a slot, built once: it holds the site's
   outcomes and the event kind, so the per-character call builds none.
   An expectation adds the two rejections of a demanded character. *)
let sl_digit = Helpers.slot_range b_digit '0' '9'
let x_dot1 = Helpers.expectation b_dot1 '.'
let x_dot2 = Helpers.expectation b_dot2 '.'
let sl_prerelease = Helpers.slot_eq b_prerelease '-'
let sl_build = Helpers.slot_eq b_build '+'
let sl_ident_char = Helpers.slot_set b_ident_char ~label:"ident" ident_chars
let sl_ident_sep = Helpers.slot_eq b_ident_sep '.'

(* A rejection is built once too: it holds the message, the exception
   that aborts the run and the verdict the run ends with. *)
let r_digit_eof = Ctx.rejection "expected digit, found end of input"
let r_digit = Ctx.rejection "expected digit"
let r_empty_ident = Ctx.rejection "empty identifier"
let r_trailing = Ctx.rejection "trailing input"

(* Each nonterminal is a frame around a named body: [Ctx.frame] records
   the block, runs the body one stack level deeper and hands it the
   context, so no closure is built per call. *)
let number_body ctx =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx r_digit_eof
  | Some c ->
    if not (Ctx.in_range_slot ctx sl_digit c '0' '9') then Ctx.reject ctx r_digit;
    Helpers.skip_range ctx sl_digit '0' '9'

let number ctx = Ctx.frame ctx s_number number_body ctx

(* [read_set] returns where the part started: the part is the input from
   there to the cursor. *)
let rec identifiers_body ctx =
  let start = Helpers.read_set ctx sl_ident_char ident_chars in
  if Ctx.pos ctx = start then Ctx.reject ctx r_empty_ident;
  if Helpers.eat_if ctx sl_ident_sep '.' then identifiers_body ctx

let identifiers ctx = Ctx.frame ctx s_ident identifiers_body ctx

let parse_body ctx =
  number ctx;
  Helpers.expect ctx x_dot1;
  number ctx;
  Helpers.expect ctx x_dot2;
  number ctx;
  if Helpers.eat_if ctx sl_prerelease '-' then identifiers ctx;
  if Helpers.eat_if ctx sl_build '+' then identifiers ctx;
  match Ctx.peek ctx with
  | Some _ ->
    ignore (Ctx.branch ctx b_trailing true);
    Ctx.reject ctx r_trailing
  | None -> ignore (Ctx.branch ctx b_trailing false)

let parse ctx = Ctx.frame ctx s_parse parse_body ctx

let subject =
  {
    Pdf_subjects.Subject.name = "semver";
    description = "semantic version strings (custom example subject)";
    registry;
    parse;
    machine = None;
    fuel = 10_000;
    tokens = [];
    tokenize = (fun _ -> []);
    original_loc = 0;
  }

let () =
  Printf.printf "Fuzzing a custom semantic-version parser...\n\n";
  let config =
    { Pdf_core.Pfuzzer.default_config with seed = 5; max_executions = 8000 }
  in
  let result =
    Pdf_core.Pfuzzer.fuzz
      ~on_valid:(fun v -> Printf.printf "  valid version: %S\n" v)
      config subject
  in
  Printf.printf "\n%d executions, %d valid versions, %.1f%% branch coverage\n"
    result.executions
    (List.length result.valid_inputs)
    (Pdf_instr.Coverage.percent result.valid_coverage registry)
