module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset

let registry = Site.create_registry "csv"
let s_parse = Site.block registry "parse"
let s_record = Site.block registry "record"
let s_field = Site.block registry "field"
let s_quoted = Site.block registry "quoted"
let b_quote_open = Site.branch registry "field.quote?"
let b_bare_char = Site.branch registry "field.bare-char?"
let b_quote_close = Site.branch registry "quoted.quote?"
let b_quote_escape = Site.branch registry "quoted.escaped-quote?"
let b_comma = Site.branch registry "record.comma?"
let b_newline = Site.branch registry "parse.newline?"
let b_final_eof = Site.branch registry "parse.final-eof"

let bare_chars = Charset.complement (Charset.of_string ",\"\n")

module Machine = Pdf_instr.Machine
module K = Helpers.K

(* CSV has no recursive nesting, so the whole recognizer is constructed
   at module initialisation: the quoted-field scan, the comma loop and
   the record/newline cycle all close over themselves with [K.fix], the
   bare-field scan is a static [skip_set] cycle, and a steady-state run
   allocates no step nodes. *)

let sl_quote_open = Helpers.slot_eq b_quote_open '"'
let sl_quote_close = Helpers.slot_eq b_quote_close '"'
let sl_quote_escape = Helpers.slot_eq b_quote_escape '"'
let sl_newline = Helpers.slot_eq b_newline '\n'

let quoted (k : K.k) : K.k =
  K.with_frame s_quoted
    (fun k ->
      let body =
        K.fix (fun body ->
            let skip_body = K.skip body in
            let after_quote =
              (* A doubled quote continues the field. *)
              K.peek (fun c2 ->
                  fun ctx ->
                    match c2 with
                    | Some c2 when Ctx.eq_slot ctx sl_quote_escape c2 '"' ->
                      skip_body ctx
                    | Some _ | None -> k ctx)
            in
            K.next (fun c ->
                fun ctx ->
                  match c with
                  | None -> Ctx.reject ctx "unterminated quoted field"
                  | Some c ->
                    if Ctx.eq_slot ctx sl_quote_close c '"' then after_quote ctx
                    else body ctx))
      in
      K.skip (* opening quote *) body)
    k

let field (k : K.k) : K.k =
  K.with_frame s_field
    (fun k ->
      let q = quoted k in
      let bare = K.skip_set b_bare_char ~label:"bare-char" bare_chars k in
      K.peek (fun c ->
          fun ctx ->
            match c with
            | None -> k ctx
            | Some c ->
              if Ctx.eq_slot ctx sl_quote_open c '"' then q ctx else bare ctx))
    k

let record (k : K.k) : K.k =
  K.with_frame s_record
    (fun k ->
      let more =
        K.fix (fun more ->
            K.eat_if b_comma ',' (fun ate -> if ate then field more else k))
      in
      field more)
    k

let machine : Machine.recognizer =
  K.with_frame s_parse
    (fun k ->
      let rest =
        K.fix (fun rest ->
            let rec_rest = record rest in
            let after_nl =
              (* After a newline, either another record follows or the
                 input ends; the peek doubles as the trailing-newline EOF
                 probe for extensibility. *)
              K.peek (fun c2 -> match c2 with None -> k | Some _ -> rec_rest)
            in
            let skip_after = K.skip after_nl in
            K.peek (fun c ->
                fun ctx ->
                  match c with
                  | None ->
                    ignore (Ctx.branch ctx b_final_eof true);
                    k ctx
                  | Some c ->
                    if Ctx.eq_slot ctx sl_newline c '\n' then skip_after ctx
                    else Ctx.reject ctx "unexpected character after field"))
      in
      record rest)
    K.stop

let parse ctx = Machine.run ctx machine

let tokens = [ Token.literal ","; Token.make "field" 1 ]

let tokenize input =
  let tags = ref [] in
  let push tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  String.iter
    (fun c ->
      match c with
      | ',' -> push ","
      | '\n' -> ()
      | _ -> push "field")
    input;
  List.rev !tags

let subject =
  {
    Subject.name = "csv";
    description = "comma-separated values (paper subject: csvparser)";
    registry;
    parse;
    machine = Some machine;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 297;
  }
