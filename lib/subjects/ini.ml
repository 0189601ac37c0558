module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset
module Tstring = Pdf_taint.Tstring

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

module Machine = Pdf_instr.Machine
module K = Helpers.K

(* INI has no recursive nesting, so the whole recognizer is constructed
   at module initialisation: every loop ([lines], the section-name scan,
   the skip-sets) closes over itself with [K.fix] or the static
   [skip_set] cycle, and a steady-state run allocates no step nodes at
   all. *)

let sl_rbracket = K.slot_eq b_rbracket ']'
let sl_section_nl = K.slot_eq b_section_nl '\n'
let sl_newline = K.slot_eq b_newline '\n'
let sl_comment_semi = K.slot_eq b_comment_semi ';'
let sl_comment_hash = K.slot_eq b_comment_hash '#'
let sl_lbracket = K.slot_eq b_lbracket '['
let sl_keychar = K.slot_set b_keychar ~label:"key-char" key_chars

let skip_inline_ws k = K.skip_set b_inline_ws ~label:"inline-ws" inline_ws k
let skip_to_eol k = K.skip_set b_value_char ~label:"line-char" value_chars k

(* [section] parses the body after '[': a (possibly empty, as in inih)
   name terminated by ']'. Any character except ']' and newline may
   appear in a name. The [len = 0] emptiness branch is needed only on
   the first iteration, so the scan is a first-iteration node chained
   into a fixed rest-loop. *)
let section (k : K.k) : K.k =
  K.with_frame s_section
    (fun k ->
      let after = skip_to_eol k in
      let body ~first rest =
        K.next (fun c ->
            fun ctx ->
              match c with
              | None -> Ctx.reject ctx "unterminated section header"
              | Some c ->
                if Ctx.eq_slot ctx sl_rbracket c ']' then begin
                  ignore (Ctx.branch ctx b_section_empty first);
                  after ctx
                end
                else if Ctx.eq_slot ctx sl_section_nl c '\n' then
                  Ctx.reject ctx "newline in section header"
                else rest ctx)
      in
      let rest = K.fix (fun rest -> body ~first:false rest) in
      body ~first:true rest)
    k

(* [kvpair] parses a key (whose first character has already been
   examined but not consumed) up to '=', then the value to end of line. *)
let kvpair (k : K.k) : K.k =
  K.with_frame s_kvpair
    (fun k ->
      K.skip_set b_key_more ~label:"key-char" key_chars
        (skip_inline_ws (K.expect b_equals '=' (skip_inline_ws (skip_to_eol k)))))
    k

let line (k : K.k) : K.k =
  K.with_frame s_line
    (fun k ->
      let skip_k = K.skip k in
      let comment = K.with_frame s_comment (fun k -> K.skip (skip_to_eol k)) k in
      let sec = K.skip (section k) in
      let kv = kvpair k in
      skip_inline_ws
        (K.peek (fun c ->
             fun ctx ->
               match c with
               | None ->
                 ignore (Ctx.branch ctx b_blank true);
                 k ctx
               | Some c ->
                 ignore (Ctx.branch ctx b_blank false);
                 if Ctx.eq_slot ctx sl_newline c '\n' then skip_k ctx
                 else if
                   Ctx.eq_slot ctx sl_comment_semi c ';'
                   || Ctx.eq_slot ctx sl_comment_hash c '#'
                 then comment ctx
                 else if Ctx.eq_slot ctx sl_lbracket c '[' then sec ctx
                 else if Ctx.in_set_slot ctx sl_keychar c key_chars then kv ctx
                 else Ctx.reject ctx "invalid start of line")))
    k

let machine : Machine.recognizer =
  K.with_frame s_parse
    (fun k ->
      K.fix (fun lines ->
          let skip_lines = K.skip lines in
          (* [line] stops either at a newline it consumed or at end of
             line; consume the terminating newline if present. *)
          let after_line =
            K.peek (fun c2 ->
                fun ctx ->
                  match c2 with
                  | Some c2 when Ctx.eq_slot ctx sl_newline c2 '\n' ->
                    skip_lines ctx
                  | Some _ | None -> lines ctx)
          in
          let body = line after_line in
          (* The loop-head peek decides whether another line follows; at
             end of input it doubles as the final EOF probe, so an
             accepted input still signals extensibility. *)
          K.peek (fun c -> match c with None -> k | Some _ -> body)))
    K.stop

let parse ctx = Machine.run ctx machine

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
    machine = Some machine;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 293;
  }
