module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset
module Tchar = Pdf_taint.Tchar

let registry = Site.create_registry "json"
let s_parse = Site.block registry "parse"
let s_value = Site.block registry "value"
let s_object = Site.block registry "object"
let s_array = Site.block registry "array"
let s_string = Site.block registry "string"
let s_number = Site.block registry "number"
let s_keyword = Site.block registry "keyword"
let s_escape = Site.block registry "escape"
let s_utf16 = Site.block registry "escape.utf16"
let s_utf16_surrogate = Site.block registry "escape.utf16-surrogate-pair"
let b_ws = Site.branch registry "ws?"
let b_lbrace = Site.branch registry "value.lbrace?"
let b_lbracket = Site.branch registry "value.lbracket?"
let b_quote = Site.branch registry "value.quote?"
let b_minus = Site.branch registry "value.minus?"
let b_digit = Site.branch registry "value.digit?"
let b_letter = Site.branch registry "value.letter?"
let b_kw_true = Site.branch registry "keyword.true?"
let b_kw_false = Site.branch registry "keyword.false?"
let b_kw_null = Site.branch registry "keyword.null?"
let b_obj_empty = Site.branch registry "object.empty?"
let b_obj_key_quote = Site.branch registry "object.key-quote"
let b_colon = Site.branch registry "object.colon"
let b_obj_comma = Site.branch registry "object.comma?"
let b_rbrace = Site.branch registry "object.rbrace"
let b_arr_empty = Site.branch registry "array.empty?"
let b_arr_comma = Site.branch registry "array.comma?"
let b_rbracket = Site.branch registry "array.rbracket"
let b_str_close = Site.branch registry "string.close?"
let b_str_backslash = Site.branch registry "string.backslash?"
let b_str_control = Site.branch registry "string.control?"
let b_esc_simple = Site.branch registry "escape.simple?"
let b_esc_u = Site.branch registry "escape.u?"
let b_hex_valid = Site.branch registry "escape.hex-valid?"
let b_surrogate_high = Site.branch registry "escape.high-surrogate?"
let b_surrogate_low = Site.branch registry "escape.low-surrogate-ok?"
let b_num_int = Site.branch registry "number.int-digit?"
let b_num_dot = Site.branch registry "number.dot?"
let b_num_frac = Site.branch registry "number.frac-digit?"
let b_num_exp = Site.branch registry "number.exp?"
let b_num_exp_sign = Site.branch registry "number.exp-sign?"
let b_num_exp_digit = Site.branch registry "number.exp-digit?"
let b_trailing = Site.branch registry "parse.trailing?"

let ws = Charset.of_string " \t\r\n"

(* Slots for every comparison site, and expectations for the characters
   the parser demands, resolved once at module initialisation. *)
let sl_ws = Helpers.slot_set b_ws ~label:"whitespace" ws
let sl_str_close = Helpers.slot_eq b_str_close '"'
let sl_str_backslash = Helpers.slot_eq b_str_backslash '\\'
let sl_esc_simple = Helpers.slot_one_of b_esc_simple "\"\\/bfnrt"
let sl_num_exp_sign = Helpers.slot_one_of b_num_exp_sign "+-"
let sl_num_exp = Helpers.slot_one_of b_num_exp "eE"
let sl_num_dot = Helpers.slot_eq b_num_dot '.'
let sl_minus = Helpers.slot_eq b_minus '-'
let sl_lbrace = Helpers.slot_eq b_lbrace '{'
let sl_lbracket = Helpers.slot_eq b_lbracket '['
let sl_quote = Helpers.slot_eq b_quote '"'
let sl_digit = Helpers.slot_range b_digit '0' '9'
let sl_letter = Helpers.slot_set b_letter ~label:"letter" Charset.letters
let sl_obj_empty = Helpers.slot_eq b_obj_empty '}'
let sl_obj_key_quote = Helpers.slot_eq b_obj_key_quote '"'
let x_colon = Helpers.expectation b_colon ':'
let sl_obj_comma = Helpers.slot_eq b_obj_comma ','
let x_rbrace = Helpers.expectation b_rbrace '}'
let sl_arr_empty = Helpers.slot_eq b_arr_empty ']'
let sl_arr_comma = Helpers.slot_eq b_arr_comma ','
let x_rbracket = Helpers.expectation b_rbracket ']'
let sl_num_int = Helpers.slot_range b_num_int '0' '9'
let sl_num_frac = Helpers.slot_range b_num_frac '0' '9'
let sl_num_exp_digit = Helpers.slot_range b_num_exp_digit '0' '9'

let skip_ws ctx = Helpers.skip_set ctx sl_ws ws

(* Frames are bare enter/exit pairs, so a rejection logs no exit for
   the frames it unwinds; the golden digests pin that frame log
   (DESIGN §11). *)

(* One or more digits, all compared through [sl]. *)
let digits ctx sl =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx "expected digit, found end of input"
  | Some c ->
    if not (Ctx.in_range_slot ctx sl c '0' '9') then Ctx.reject ctx "expected digit";
    Helpers.skip_range ctx sl '0' '9'

(* cJSON's UTF-16 decoding relies on implicit flow: the hex digits are
   turned into a code point by table lookups and arithmetic, never by a
   comparison the taint tracker sees. We model that by classifying hex
   characters with plain (untracked) OCaml tests — the branch outcome is
   still recorded for coverage, but no comparison event is emitted, so the
   parser-directed fuzzer cannot learn the alphabet here. -1 is not a
   hex digit. *)
let untracked_hex_value (c : Tchar.t) =
  match c.Tchar.ch with
  | '0' .. '9' -> Char.code c.Tchar.ch - Char.code '0'
  | 'a' .. 'f' -> Char.code c.Tchar.ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c.Tchar.ch - Char.code 'A' + 10
  | _ -> -1

(* The code unit of the next [n] hex digits, read onto [acc]. *)
let rec utf16_quad ctx acc n =
  if n = 0 then acc
  else
    match Ctx.next ctx with
    | None -> Ctx.reject ctx "unterminated \\u escape"
    | Some c ->
      let v = untracked_hex_value c in
      if Ctx.branch ctx b_hex_valid (v >= 0) then
        utf16_quad ctx ((acc * 16) + v) (n - 1)
      else Ctx.reject ctx "invalid hex digit in \\u escape"

(* The surrogate-pair glue characters are matched without tracking, like
   [untracked_hex_value]: cJSON recognises them via implicit flow. *)
let expect_untracked ctx expected =
  match Ctx.next ctx with
  | Some c when c.Tchar.ch = expected -> ()
  | Some _ | None -> Ctx.reject ctx "missing low surrogate"

(* A high surrogate must be followed by "\uDC00".."\uDFFF". *)
let utf16_surrogate ctx =
  Ctx.enter_frame ctx s_utf16_surrogate;
  expect_untracked ctx '\\';
  expect_untracked ctx 'u';
  let second = utf16_quad ctx 0 4 in
  let low = second >= 0xDC00 && second <= 0xDFFF in
  if not (Ctx.branch ctx b_surrogate_low low) then
    Ctx.reject ctx "invalid low surrogate";
  Ctx.exit_frame ctx

let utf16_escape ctx =
  Ctx.enter_frame ctx s_utf16;
  let first = utf16_quad ctx 0 4 in
  if Ctx.branch ctx b_surrogate_high (first >= 0xD800 && first <= 0xDBFF) then
    utf16_surrogate ctx
  else if first >= 0xDC00 && first <= 0xDFFF then
    Ctx.reject ctx "unpaired low surrogate";
  Ctx.exit_frame ctx

let escape ctx =
  Ctx.enter_frame ctx s_escape;
  (match Ctx.next ctx with
   | None -> Ctx.reject ctx "unterminated escape"
   | Some c ->
     if Ctx.one_of_slot ctx sl_esc_simple c "\"\\/bfnrt" then ()
     else if Ctx.branch ctx b_esc_u (c.Tchar.ch = 'u') then utf16_escape ctx
     else Ctx.reject ctx "invalid escape character");
  Ctx.exit_frame ctx

(* A string's characters after the opening quote, up to the closing
   one. *)
let rec string_chars ctx =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx "unterminated string"
  | Some c ->
    if not (Ctx.eq_slot ctx sl_str_close c '"') then begin
      if Ctx.eq_slot ctx sl_str_backslash c '\\' then escape ctx
      else if Ctx.branch ctx b_str_control (Char.code c.Tchar.ch < 0x20) then
        Ctx.reject ctx "control character in string";
      string_chars ctx
    end

let string_ ctx =
  Ctx.enter_frame ctx s_string;
  ignore (Ctx.next ctx) (* opening quote *);
  string_chars ctx;
  Ctx.exit_frame ctx

let number_body ctx =
  ignore (Helpers.eat_if ctx sl_minus '-');
  digits ctx sl_num_int;
  if Helpers.eat_if ctx sl_num_dot '.' then digits ctx sl_num_frac;
  match Ctx.peek ctx with
  | Some c when Ctx.one_of_slot ctx sl_num_exp c "eE" ->
    ignore (Ctx.next ctx);
    (match Ctx.peek ctx with
     | Some c when Ctx.one_of_slot ctx sl_num_exp_sign c "+-" -> ignore (Ctx.next ctx)
     | Some _ | None -> ());
    digits ctx sl_num_exp_digit
  | Some _ | None -> ()

let number ctx =
  Ctx.enter_frame ctx s_number;
  number_body ctx;
  Ctx.exit_frame ctx

let keyword_body ctx =
  let word = Helpers.read_set ctx sl_letter Charset.letters in
  if
    not
      (Ctx.str_eq ctx b_kw_true word "true"
      || Ctx.str_eq ctx b_kw_false word "false"
      || Ctx.str_eq ctx b_kw_null word "null")
  then Ctx.reject ctx "invalid literal"

let keyword ctx =
  Ctx.enter_frame ctx s_keyword;
  keyword_body ctx;
  Ctx.exit_frame ctx

(* [value] ticks once per call, so deep nesting runs out of fuel. *)
let rec value ctx =
  Ctx.enter_frame ctx s_value;
  Ctx.tick ctx;
  (match Ctx.peek ctx with
   | None -> Ctx.reject ctx "expected value, found end of input"
   | Some c ->
     if Ctx.eq_slot ctx sl_lbrace c '{' then object_ ctx
     else if Ctx.eq_slot ctx sl_lbracket c '[' then array ctx
     else if Ctx.eq_slot ctx sl_quote c '"' then string_ ctx
     else if Ctx.eq_slot ctx sl_minus c '-' then number ctx
     else if Ctx.in_range_slot ctx sl_digit c '0' '9' then number ctx
     else if Ctx.in_set_slot ctx sl_letter c Charset.letters then keyword ctx
     else Ctx.reject ctx "unexpected character at start of value");
  Ctx.exit_frame ctx

and object_ ctx =
  Ctx.enter_frame ctx s_object;
  ignore (Ctx.next ctx) (* '{' *);
  skip_ws ctx;
  if not (Helpers.eat_if ctx sl_obj_empty '}') then members ctx;
  Ctx.exit_frame ctx

and members ctx =
  skip_ws ctx;
  (match Ctx.peek ctx with
   | Some c when Ctx.eq_slot ctx sl_obj_key_quote c '"' -> ()
   | Some _ -> Ctx.reject ctx "expected string key"
   | None -> Ctx.reject ctx "expected string key, found end of input");
  string_ ctx;
  skip_ws ctx;
  Helpers.expect ctx x_colon;
  skip_ws ctx;
  value ctx;
  skip_ws ctx;
  if Helpers.eat_if ctx sl_obj_comma ',' then members ctx
  else Helpers.expect ctx x_rbrace

and array ctx =
  Ctx.enter_frame ctx s_array;
  ignore (Ctx.next ctx) (* '[' *);
  skip_ws ctx;
  if not (Helpers.eat_if ctx sl_arr_empty ']') then elements ctx;
  Ctx.exit_frame ctx

and elements ctx =
  skip_ws ctx;
  value ctx;
  skip_ws ctx;
  if Helpers.eat_if ctx sl_arr_comma ',' then elements ctx
  else Helpers.expect ctx x_rbracket

let parse ctx =
  Ctx.enter_frame ctx s_parse;
  skip_ws ctx;
  value ctx;
  skip_ws ctx;
  (match Ctx.peek ctx with
   | Some _ ->
     ignore (Ctx.branch ctx b_trailing true);
     Ctx.reject ctx "trailing input after value"
   | None -> ignore (Ctx.branch ctx b_trailing false));
  Ctx.exit_frame ctx

let tokens =
  [
    Token.literal "{";
    Token.literal "}";
    Token.literal "[";
    Token.literal "]";
    Token.literal "-";
    Token.literal ":";
    Token.literal ",";
    Token.make "number" 1;
    Token.make "string" 2;
    Token.make "null" 4;
    Token.make "true" 4;
    Token.make "false" 5;
  ]

(* Untracked scanner over a known-valid input, for the token-coverage
   measurement. *)
let tokenize input =
  let tags = ref [] in
  let push tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  let n = String.length input in
  let rec scan i =
    if i < n then
      match input.[i] with
      | '{' | '}' | '[' | ']' | ':' | ',' | '-' ->
        push (String.make 1 input.[i]);
        scan (i + 1)
      | '"' ->
        push "string";
        let rec close j =
          if j >= n then j
          else if input.[j] = '\\' then close (j + 2)
          else if input.[j] = '"' then j + 1
          else close (j + 1)
        in
        scan (close (i + 1))
      | '0' .. '9' ->
        push "number";
        scan (i + 1)
      | 'a' .. 'z' | 'A' .. 'Z' ->
        let rec word j =
          if j < n && (match input.[j] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
          then word (j + 1)
          else j
        in
        let j = word i in
        (match String.sub input i (j - i) with
         | "true" -> push "true"
         | "false" -> push "false"
         | "null" -> push "null"
         | _ -> ());
        scan j
      | _ -> scan (i + 1)
  in
  scan 0;
  List.rev !tags

let subject =
  {
    Subject.name = "json";
    description = "JSON documents (paper subject: cJSON)";
    registry;
    parse;
    machine = None;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 2483;
  }
