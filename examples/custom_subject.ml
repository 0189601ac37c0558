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

(* A set comparison goes through a slot, built once: it holds the site's
   outcomes and the event kind, so the per-character call builds none. *)
let sl_ident_char = Helpers.slot_set b_ident_char ~label:"ident" ident_chars

let number ctx =
  Ctx.with_frame ctx s_number @@ fun () ->
  match Ctx.next ctx with
  | None -> Ctx.reject ctx "expected digit, found end of input"
  | Some c ->
    if not (Ctx.in_range ctx b_digit c '0' '9') then Ctx.reject ctx "expected digit";
    let rec more () =
      match Ctx.peek ctx with
      | Some c when Ctx.in_range ctx b_digit c '0' '9' ->
        ignore (Ctx.next ctx);
        more ()
      | Some _ | None -> ()
    in
    more ()

let identifiers ctx =
  Ctx.with_frame ctx s_ident @@ fun () ->
  let rec one () =
    let part = Helpers.read_set ctx sl_ident_char ident_chars in
    if Pdf_taint.Tstring.length part = 0 then Ctx.reject ctx "empty identifier";
    if Helpers.eat_if ctx b_ident_sep '.' then one ()
  in
  one ()

let parse ctx =
  Ctx.with_frame ctx s_parse @@ fun () ->
  number ctx;
  Helpers.expect ctx b_dot1 '.';
  number ctx;
  Helpers.expect ctx b_dot2 '.';
  number ctx;
  if Helpers.eat_if ctx b_prerelease '-' then identifiers ctx;
  if Helpers.eat_if ctx b_build '+' then identifiers ctx;
  match Ctx.peek ctx with
  | Some _ ->
    ignore (Ctx.branch ctx b_trailing true);
    Ctx.reject ctx "trailing input"
  | None -> ignore (Ctx.branch ctx b_trailing false)

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
