module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset
module Tchar = Pdf_taint.Tchar
module Tstring = Pdf_taint.Tstring

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

module Machine = Pdf_instr.Machine
module K = Helpers.K

(* The hot loops — string bodies, digit runs, whitespace — are static
   node cycles; the number grammar's peek chain and the escape/utf16
   machinery are constructed once per nonterminal entry with all
   continuations hoisted. [value]/[object_]/[array] stay runtime
   recursion (JSON nests arbitrarily), with each entry constructing its
   dispatch node once; the recursive calls are deferred inside peek
   continuations, so construction always terminates. *)

let ws = Charset.of_string " \t\r\n"

(* Slots for every comparison site, resolved once at module
   initialisation — the recursive nonterminals are constructed per
   entry, and must not rebuild site/kind data each time. *)
let sl_ws = K.slot_set b_ws ~label:"whitespace" ws
let sl_str_close = K.slot_eq b_str_close '"'
let sl_str_backslash = K.slot_eq b_str_backslash '\\'
let sl_esc_simple = K.slot_one_of b_esc_simple "\"\\/bfnrt"
let sl_num_exp_sign = K.slot_one_of b_num_exp_sign "+-"
let sl_num_exp = K.slot_one_of b_num_exp "eE"
let sl_num_dot = K.slot_eq b_num_dot '.'
let sl_minus = K.slot_eq b_minus '-'
let sl_lbrace = K.slot_eq b_lbrace '{'
let sl_lbracket = K.slot_eq b_lbracket '['
let sl_quote = K.slot_eq b_quote '"'
let sl_digit = K.slot_range b_digit '0' '9'
let sl_letter = K.slot_set b_letter ~label:"letter" Charset.letters
let sl_obj_key_quote = K.slot_eq b_obj_key_quote '"'
let sl_num_int = K.slot_range b_num_int '0' '9'
let sl_num_frac = K.slot_range b_num_frac '0' '9'
let sl_num_exp_digit = K.slot_range b_num_exp_digit '0' '9'

let skip_ws k = K.skip_while (fun c ctx -> Ctx.in_set_slot ctx sl_ws c ws) k

let digits sl_first sl_more (k : K.k) : K.k =
  let more =
    K.skip_while (fun c ctx -> Ctx.in_range_slot ctx sl_more c '0' '9') k
  in
  K.next (fun c ->
      fun ctx ->
        match c with
        | None -> Ctx.reject ctx "expected digit, found end of input"
        | Some c ->
          if not (Ctx.in_range_slot ctx sl_first c '0' '9') then
            Ctx.reject ctx "expected digit"
          else more ctx)

(* cJSON's UTF-16 decoding relies on implicit flow: the hex digits are
   turned into a code point by table lookups and arithmetic, never by a
   comparison the taint tracker sees. We model that by classifying hex
   characters with plain (untracked) OCaml tests — the branch outcome is
   still recorded for coverage, but no comparison event is emitted, so the
   parser-directed fuzzer cannot learn the alphabet here. *)
let untracked_hex_value (c : Tchar.t) =
  match c.Tchar.ch with
  | '0' .. '9' -> Some (Char.code c.Tchar.ch - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c.Tchar.ch - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c.Tchar.ch - Char.code 'A' + 10)
  | _ -> None

let utf16_quad (f : int -> K.k) : K.k =
 fun ctx ->
  let rec quad acc n ctx =
    if n = 0 then f acc ctx
    else
      K.next
        (fun c ->
          fun ctx ->
            match c with
            | None -> Ctx.reject ctx "unterminated \\u escape"
            | Some c -> (
              match untracked_hex_value c with
              | Some v ->
                ignore (Ctx.branch ctx b_hex_valid true);
                quad ((acc * 16) + v) (n - 1) ctx
              | None ->
                ignore (Ctx.branch ctx b_hex_valid false);
                Ctx.reject ctx "invalid hex digit in \\u escape"))
        ctx
  in
  quad 0 4 ctx

(* The surrogate-pair glue characters are matched without tracking, like
   [untracked_hex_value]: cJSON recognises them via implicit flow. *)
let expect_untracked expected (k : K.k) : K.k =
  K.next (fun c ->
      fun ctx ->
        match c with
        | Some c when c.Tchar.ch = expected -> k ctx
        | Some _ | None -> Ctx.reject ctx "missing low surrogate")

let utf16_escape (k : K.k) : K.k =
  K.with_frame s_utf16
    (fun k ->
      let surrogate =
        (* A high surrogate must be followed by "\uDC00".."\uDFFF". *)
        K.with_frame s_utf16_surrogate
          (fun k ->
            expect_untracked '\\'
              (expect_untracked 'u'
                 (utf16_quad (fun second ->
                      fun ctx ->
                        if
                          not
                            (Ctx.branch ctx b_surrogate_low
                               (second >= 0xDC00 && second <= 0xDFFF))
                        then Ctx.reject ctx "invalid low surrogate"
                        else k ctx))))
          k
      in
      utf16_quad (fun first ->
          fun ctx ->
            if Ctx.branch ctx b_surrogate_high (first >= 0xD800 && first <= 0xDBFF)
            then surrogate ctx
            else if first >= 0xDC00 && first <= 0xDFFF then
              Ctx.reject ctx "unpaired low surrogate"
            else k ctx))
    k

let escape (k : K.k) : K.k =
  K.with_frame s_escape
    (fun k ->
      let u = utf16_escape k in
      K.next (fun c ->
          fun ctx ->
            match c with
            | None -> Ctx.reject ctx "unterminated escape"
            | Some c ->
              if Ctx.one_of_slot ctx sl_esc_simple c "\"\\/bfnrt" then k ctx
              else if Ctx.branch ctx b_esc_u (c.Tchar.ch = 'u') then u ctx
              else Ctx.reject ctx "invalid escape character"))
    k

let string_body (k : K.k) : K.k =
  K.with_frame s_string
    (fun k ->
      let body =
        K.fix (fun body ->
            (* Escapes are rare in discovered inputs; defer constructing
               the whole escape/utf16 chain until a backslash actually
               appears, so the common all-literal string pays one lazy
               block instead of the full machinery per entry. *)
            let esc = lazy (escape body) in
            K.next (fun c ->
                fun ctx ->
                  match c with
                  | None -> Ctx.reject ctx "unterminated string"
                  | Some c ->
                    if Ctx.eq_slot ctx sl_str_close c '"' then k ctx
                    else if Ctx.eq_slot ctx sl_str_backslash c '\\' then
                      Lazy.force esc ctx
                    else if
                      Ctx.branch ctx b_str_control (Char.code c.Tchar.ch < 0x20)
                    then Ctx.reject ctx "control character in string"
                    else body ctx))
      in
      K.skip (* opening quote *) body)
    k

let number (k : K.k) : K.k =
  K.with_frame s_number
    (fun k ->
      (* Constructed in dependency order, every continuation hoisted: the
         whole optional-part chain is built once per [number] entry. *)
      let exp_digits = digits sl_num_exp_digit sl_num_exp_digit k in
      let skip_exp_digits = K.skip exp_digits in
      let after_e =
        K.peek (fun c2 ->
            fun ctx ->
              match c2 with
              | Some c2 when Ctx.one_of_slot ctx sl_num_exp_sign c2 "+-" ->
                skip_exp_digits ctx
              | Some _ | None -> exp_digits ctx)
      in
      let skip_after_e = K.skip after_e in
      let exp_part =
        K.peek (fun c ->
            fun ctx ->
              match c with
              | Some c when Ctx.one_of_slot ctx sl_num_exp c "eE" ->
                skip_after_e ctx
              | Some _ | None -> k ctx)
      in
      let frac_digits = digits sl_num_frac sl_num_frac exp_part in
      let skip_frac = K.skip frac_digits in
      let frac_part =
        K.peek (fun c ->
            fun ctx ->
              match c with
              | Some c when Ctx.eq_slot ctx sl_num_dot c '.' -> skip_frac ctx
              | Some _ | None -> exp_part ctx)
      in
      let int_part = digits sl_num_int sl_num_int frac_part in
      let skip_int = K.skip int_part in
      K.peek (fun c ->
          fun ctx ->
            match c with
            | Some c when Ctx.eq_slot ctx sl_minus c '-' -> skip_int ctx
            | Some _ | None -> int_part ctx))
    k

let keyword (k : K.k) : K.k =
  K.with_frame s_keyword
    (fun k ->
      K.read_set b_letter ~label:"letter" Charset.letters (fun word ->
          fun ctx ->
            if Ctx.str_eq ctx b_kw_true word "true" then k ctx
            else if Ctx.str_eq ctx b_kw_false word "false" then k ctx
            else if Ctx.str_eq ctx b_kw_null word "null" then k ctx
            else Ctx.reject ctx "invalid literal"))
    k

let rec value (k : K.k) : K.k =
  K.with_frame s_value
    (fun k ->
      let node =
        (* The branch targets are constructed on demand inside the
           continuation: a value that turns out to be a number never
           constructs the string machinery. *)
        K.peek (fun c ->
            fun ctx ->
              match c with
              | None -> Ctx.reject ctx "expected value, found end of input"
              | Some c ->
                if Ctx.eq_slot ctx sl_lbrace c '{' then object_ k ctx
                else if Ctx.eq_slot ctx sl_lbracket c '[' then array k ctx
                else if Ctx.eq_slot ctx sl_quote c '"' then string_body k ctx
                else if Ctx.eq_slot ctx sl_minus c '-' then number k ctx
                else if Ctx.in_range_slot ctx sl_digit c '0' '9' then
                  number k ctx
                else if Ctx.in_set_slot ctx sl_letter c Charset.letters then
                  keyword k ctx
                else Ctx.reject ctx "unexpected character at start of value")
      in
      fun ctx ->
        Ctx.tick ctx;
        node ctx)
    k

and object_ (k : K.k) : K.k =
  K.with_frame s_object
    (fun k ->
      let skip_k = K.skip k in
      let members =
        K.fix (fun members ->
            let member_body =
              string_body
                (skip_ws
                   (K.expect b_colon ':'
                      (skip_ws
                         (value
                            (skip_ws
                               (K.eat_if b_obj_comma ',' (fun ate ->
                                    if ate then members
                                    else K.expect b_rbrace '}' k)))))))
            in
            skip_ws
              (K.peek (fun c ->
                   fun ctx ->
                     match c with
                     | Some c when Ctx.eq_slot ctx sl_obj_key_quote c '"' ->
                       member_body ctx
                     | Some _ -> Ctx.reject ctx "expected string key"
                     | None ->
                       Ctx.reject ctx "expected string key, found end of input")))
      in
      K.skip (* '{' *)
        (skip_ws
           (K.peek_is b_obj_empty '}' (fun empty ->
                if empty then skip_k else members))))
    k

and array (k : K.k) : K.k =
  K.with_frame s_array
    (fun k ->
      let skip_k = K.skip k in
      let elements =
        K.fix (fun elements ->
            skip_ws
              (value
                 (skip_ws
                    (K.eat_if b_arr_comma ',' (fun ate ->
                         if ate then elements else K.expect b_rbracket ']' k)))))
      in
      K.skip (* '[' *)
        (skip_ws
           (K.peek_is b_arr_empty ']' (fun empty ->
                if empty then skip_k else elements))))
    k

let machine : Machine.recognizer =
  K.with_frame s_parse
    (fun k ->
      skip_ws
        (value
           (skip_ws
              (K.peek (fun c ->
                   fun ctx ->
                     match c with
                     | Some _ ->
                       ignore (Ctx.branch ctx b_trailing true);
                       Ctx.reject ctx "trailing input after value"
                     | None ->
                       ignore (Ctx.branch ctx b_trailing false);
                       k ctx)))))
    K.stop

let parse ctx = Machine.run ctx machine

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
    machine = Some machine;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 2483;
  }
