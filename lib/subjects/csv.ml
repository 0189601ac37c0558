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

let sl_quote_open = Helpers.slot_eq b_quote_open '"'
let sl_quote_close = Helpers.slot_eq b_quote_close '"'
let sl_quote_escape = Helpers.slot_eq b_quote_escape '"'
let sl_newline = Helpers.slot_eq b_newline '\n'
let sl_comma = Helpers.slot_eq b_comma ','
let sl_bare_char = Helpers.slot_set b_bare_char ~label:"bare-char" bare_chars

(* Frames are bare enter/exit pairs, so a rejection logs no exit for
   the frames it unwinds; the golden digests pin that frame log
   (DESIGN §11). *)

(* The body of a quoted field, after the opening quote. A doubled quote
   continues the field. *)
let rec quoted_body ctx =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx "unterminated quoted field"
  | Some c ->
    if Ctx.eq_slot ctx sl_quote_close c '"' then begin
      match Ctx.peek ctx with
      | Some c2 when Ctx.eq_slot ctx sl_quote_escape c2 '"' ->
        ignore (Ctx.next ctx);
        quoted_body ctx
      | Some _ | None -> ()
    end
    else quoted_body ctx

let quoted ctx =
  Ctx.enter_frame ctx s_quoted;
  ignore (Ctx.next ctx) (* opening quote *);
  quoted_body ctx;
  Ctx.exit_frame ctx

let field ctx =
  Ctx.enter_frame ctx s_field;
  (match Ctx.peek ctx with
   | None -> ()
   | Some c ->
     if Ctx.eq_slot ctx sl_quote_open c '"' then quoted ctx
     else Helpers.skip_set ctx sl_bare_char bare_chars);
  Ctx.exit_frame ctx

let rec more_fields ctx =
  if Helpers.eat_if ctx sl_comma ',' then begin
    field ctx;
    more_fields ctx
  end

let record ctx =
  Ctx.enter_frame ctx s_record;
  field ctx;
  more_fields ctx;
  Ctx.exit_frame ctx

(* After a record: the end of input, or a newline and then another
   record or the end. The peek after a newline doubles as the
   trailing-newline EOF probe for extensibility. *)
let rec after_record ctx =
  match Ctx.peek ctx with
  | None -> ignore (Ctx.branch ctx b_final_eof true)
  | Some c ->
    if Ctx.eq_slot ctx sl_newline c '\n' then begin
      ignore (Ctx.next ctx);
      match Ctx.peek ctx with
      | None -> ()
      | Some _ ->
        record ctx;
        after_record ctx
    end
    else Ctx.reject ctx "unexpected character after field"

let parse ctx =
  Ctx.enter_frame ctx s_parse;
  record ctx;
  after_record ctx;
  Ctx.exit_frame ctx

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
    machine = None;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 297;
  }
