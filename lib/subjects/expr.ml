module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site

let registry = Site.create_registry "expr"
let s_parse = Site.block registry "parse"
let s_expr = Site.block registry "expr"
let s_factor = Site.block registry "factor"
let s_number = Site.block registry "number"
let b_sign_plus = Site.branch registry "factor.sign-plus?"
let b_sign_minus = Site.branch registry "factor.sign-minus?"
let b_digit_first = Site.branch registry "factor.digit?"
let b_lparen = Site.branch registry "factor.lparen?"
let b_rparen = Site.branch registry "factor.rparen"
let b_digit_more = Site.branch registry "number.more-digit?"
let b_op_plus = Site.branch registry "expr.op-plus?"
let b_op_minus = Site.branch registry "expr.op-minus?"
let b_trailing = Site.branch registry "parse.trailing?"

let sl_sign_plus = Helpers.slot_eq b_sign_plus '+'
let sl_sign_minus = Helpers.slot_eq b_sign_minus '-'
let sl_digit_first = Helpers.slot_range b_digit_first '0' '9'
let sl_lparen = Helpers.slot_eq b_lparen '('
let x_rparen = Helpers.expectation b_rparen ')'
let sl_digit_more = Helpers.slot_range b_digit_more '0' '9'
let sl_op_plus = Helpers.slot_eq b_op_plus '+'
let sl_op_minus = Helpers.slot_eq b_op_minus '-'

(* Frames are bare enter/exit pairs, so a rejection logs no exit for
   the frames it unwinds; the golden digests pin that frame log
   (DESIGN §11). *)

(* The first digit is consumed by [factor]; [number] eats the rest. *)
let number ctx =
  Ctx.enter_frame ctx s_number;
  Helpers.skip_range ctx sl_digit_more '0' '9';
  Ctx.exit_frame ctx

let rec expr ctx =
  Ctx.enter_frame ctx s_expr;
  factor ctx;
  ops ctx;
  Ctx.exit_frame ctx

and ops ctx =
  if Helpers.eat_if ctx sl_op_plus '+' || Helpers.eat_if ctx sl_op_minus '-' then begin
    factor ctx;
    ops ctx
  end

and factor ctx =
  Ctx.enter_frame ctx s_factor;
  factor_body ctx;
  Ctx.exit_frame ctx

and factor_body ctx =
  (* Optional unary sign. *)
  if not (Helpers.eat_if ctx sl_sign_plus '+') then
    ignore (Helpers.eat_if ctx sl_sign_minus '-');
  match Ctx.peek ctx with
  | None -> Ctx.reject ctx "expected digit or '(', found end of input"
  | Some c ->
    if Ctx.in_range_slot ctx sl_digit_first c '0' '9' then begin
      ignore (Ctx.next ctx);
      number ctx
    end
    else if Ctx.eq_slot ctx sl_lparen c '(' then begin
      ignore (Ctx.next ctx);
      expr ctx;
      Helpers.expect ctx x_rparen
    end
    else Ctx.reject ctx "expected digit or '('"

let parse ctx =
  Ctx.enter_frame ctx s_parse;
  expr ctx;
  (match Ctx.peek ctx with
   | Some _ ->
     ignore (Ctx.branch ctx b_trailing true);
     Ctx.reject ctx "trailing input after expression"
   | None -> ignore (Ctx.branch ctx b_trailing false));
  Ctx.exit_frame ctx

let tokens =
  [
    Token.literal "(";
    Token.literal ")";
    Token.literal "+";
    Token.literal "-";
    Token.make "number" 1;
  ]

let tokenize input =
  let tags = ref [] in
  let push tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  String.iter
    (fun c ->
      match c with
      | '(' -> push "("
      | ')' -> push ")"
      | '+' -> push "+"
      | '-' -> push "-"
      | '0' .. '9' -> push "number"
      | _ -> ())
    input;
  List.rev !tags

let subject =
  {
    Subject.name = "expr";
    description = "arithmetic expressions (the paper's Section 2 example)";
    registry;
    parse;
    machine = None;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 60;
  }
