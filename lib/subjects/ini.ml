module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset

let registry = Site.create_registry "ini"
let s_parse = Site.block registry "parse"
let s_line = Site.block registry "line"
let s_section = Site.block registry "section"
let s_kvpair = Site.block registry "kvpair"
let s_comment = Site.block registry "comment"
let b_blank = Site.branch registry "line.blank"
let b_comment_semi = Site.branch registry "line.semicolon?"
let b_comment_hash = Site.branch registry "line.hash?"
let b_lbracket = Site.branch registry "line.lbracket?"
let b_newline = Site.branch registry "line.newline?"
let b_keychar = Site.branch registry "line.keychar?"
let b_rbracket = Site.branch registry "section.rbracket?"
let b_section_nl = Site.branch registry "section.newline?"
let b_section_empty = Site.branch registry "section.empty-name?"
let b_key_more = Site.branch registry "key.more?"
let b_equals = Site.branch registry "kvpair.equals"
let b_value_char = Site.branch registry "value.char?"
let b_inline_ws = Site.branch registry "inline-ws?"

let inline_ws = Charset.of_string " \t\r"
let key_chars = Charset.union Charset.letters (Charset.union Charset.digits (Charset.of_string "_.-"))
let value_chars = Charset.complement (Charset.singleton '\n')

let sl_rbracket = Helpers.slot_eq b_rbracket ']'
let sl_section_nl = Helpers.slot_eq b_section_nl '\n'
let sl_newline = Helpers.slot_eq b_newline '\n'
let sl_comment_semi = Helpers.slot_eq b_comment_semi ';'
let sl_comment_hash = Helpers.slot_eq b_comment_hash '#'
let sl_lbracket = Helpers.slot_eq b_lbracket '['
let sl_keychar = Helpers.slot_set b_keychar ~label:"key-char" key_chars
let sl_key_more = Helpers.slot_set b_key_more ~label:"key-char" key_chars
let x_equals = Helpers.expectation b_equals '='
let sl_inline_ws = Helpers.slot_set b_inline_ws ~label:"inline-ws" inline_ws
let sl_line_char = Helpers.slot_set b_value_char ~label:"line-char" value_chars

let skip_inline_ws ctx = Helpers.skip_set ctx sl_inline_ws inline_ws
let skip_to_eol ctx = Helpers.skip_set ctx sl_line_char value_chars

(* Frames are bare enter/exit pairs, so a rejection logs no exit for
   the frames it unwinds; the golden digests pin that frame log
   (DESIGN §11). *)

(* A section name after '[': possibly empty, as in inih, and ended by
   ']'. Any character except ']' and newline may appear in a name; the
   emptiness branch is recorded when the ']' arrives. *)
let rec section_name ctx ~first =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx "unterminated section header"
  | Some c ->
    if Ctx.eq_slot ctx sl_rbracket c ']' then begin
      ignore (Ctx.branch ctx b_section_empty first);
      skip_to_eol ctx
    end
    else if Ctx.eq_slot ctx sl_section_nl c '\n' then
      Ctx.reject ctx "newline in section header"
    else section_name ctx ~first:false

let section ctx =
  Ctx.enter_frame ctx s_section;
  section_name ctx ~first:true;
  Ctx.exit_frame ctx

(* A key (whose first character has already been examined but not
   consumed) up to '=', then the value to end of line. *)
let kvpair ctx =
  Ctx.enter_frame ctx s_kvpair;
  Helpers.skip_set ctx sl_key_more key_chars;
  skip_inline_ws ctx;
  Helpers.expect ctx x_equals;
  skip_inline_ws ctx;
  skip_to_eol ctx;
  Ctx.exit_frame ctx

let comment ctx =
  Ctx.enter_frame ctx s_comment;
  ignore (Ctx.next ctx);
  skip_to_eol ctx;
  Ctx.exit_frame ctx

let line_body ctx =
  skip_inline_ws ctx;
  match Ctx.peek ctx with
  | None -> ignore (Ctx.branch ctx b_blank true)
  | Some c ->
    ignore (Ctx.branch ctx b_blank false);
    if Ctx.eq_slot ctx sl_newline c '\n' then ignore (Ctx.next ctx)
    else if
      Ctx.eq_slot ctx sl_comment_semi c ';' || Ctx.eq_slot ctx sl_comment_hash c '#'
    then comment ctx
    else if Ctx.eq_slot ctx sl_lbracket c '[' then begin
      ignore (Ctx.next ctx);
      section ctx
    end
    else if Ctx.in_set_slot ctx sl_keychar c key_chars then kvpair ctx
    else Ctx.reject ctx "invalid start of line"

let line ctx =
  Ctx.enter_frame ctx s_line;
  line_body ctx;
  Ctx.exit_frame ctx

(* The loop-head peek decides whether another line follows; at end of
   input it doubles as the final EOF probe, so an accepted input still
   signals extensibility. [line] stops either at a newline it consumed
   or at end of line; the terminating newline is consumed here. *)
let rec lines ctx =
  match Ctx.peek ctx with
  | None -> ()
  | Some _ ->
    line ctx;
    (match Ctx.peek ctx with
     | Some c when Ctx.eq_slot ctx sl_newline c '\n' -> ignore (Ctx.next ctx)
     | Some _ | None -> ());
    lines ctx

let parse ctx =
  Ctx.enter_frame ctx s_parse;
  lines ctx;
  Ctx.exit_frame ctx

let tokens =
  [
    Token.literal "[";
    Token.literal "]";
    Token.literal "=";
    Token.literal ";";
    Token.make "identifier" 1;
  ]

let tokenize input =
  let tags = ref [] in
  let push tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  String.iter
    (fun c ->
      match c with
      | '[' -> push "["
      | ']' -> push "]"
      | '=' -> push "="
      | ';' | '#' -> push ";"
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> push "identifier"
      | _ -> ())
    input;
  List.rev !tags

let subject =
  {
    Subject.name = "ini";
    description = "INI configuration files (paper subject: inih)";
    registry;
    parse;
    machine = None;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 293;
  }
