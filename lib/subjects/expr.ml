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

module Machine = Pdf_instr.Machine
module K = Helpers.K

(* [number]'s digit loop is a static two-node cycle; [factor] builds its
   dispatch body, the continuations it can ([number k], the ')'-expect)
   and the sign-probe chain at nonterminal entry; [ops]' operator loop
   closes over itself with [K.fix] so the +/- cycle is constructed once
   per [expr] entry. Only the genuinely recursive calls ([expr] under
   parentheses) construct at runtime. *)

let msg_eof_rparen, msg_rparen = K.reject_msgs ')'

let sl_digit_first = K.slot_range b_digit_first '0' '9'
let sl_lparen = K.slot_eq b_lparen '('

(* The first digit is consumed by [factor]; [number] eats the rest. *)
let number (k : K.k) : K.k =
  K.with_frame s_number (fun k -> K.skip_range b_digit_more '0' '9' k) k

let rec expr (k : K.k) : K.k = K.with_frame s_expr (fun k -> factor (ops k)) k

and ops (k : K.k) : K.k =
  (* Without [fix], constructing [ops] would construct [factor ops],
     which constructs [ops] … — the operator loop must close over
     itself. The two operator branches continue identically, so
     [factor ops] is constructed once, shared. *)
  K.fix (fun ops ->
      let fo = factor ops in
      K.eat_if b_op_plus '+' (fun ate ->
          if ate then fo
          else K.eat_if b_op_minus '-' (fun ate -> if ate then fo else k)))

and factor (k : K.k) : K.k =
  K.with_frame s_factor
    (fun k ->
      let num = number k in
      let after_rparen =
        K.expect_with ~msg_eof:msg_eof_rparen ~msg:msg_rparen b_rparen ')' k
      in
      let body : K.k =
        K.peek (fun c ->
            fun ctx ->
              match c with
              | None -> Ctx.reject ctx "expected digit or '(', found end of input"
              | Some c ->
                if Ctx.in_range_slot ctx sl_digit_first c '0' '9' then
                  K.skip num ctx
                else if Ctx.eq_slot ctx sl_lparen c '(' then
                  (* [expr] must stay a runtime call: constructing it
                     here would recurse factor → expr → factor forever. *)
                  K.skip (expr after_rparen) ctx
                else Ctx.reject ctx "expected digit or '('")
      in
      (* Optional unary sign. *)
      K.peek_is b_sign_plus '+' (fun plus ->
          if plus then K.skip body
          else
            K.peek_is b_sign_minus '-' (fun minus ->
                if minus then K.skip body else body)))
    k

let machine : Machine.recognizer =
  K.with_frame s_parse
    (fun k ->
      expr
        (K.peek (fun c ->
             fun ctx ->
               match c with
               | Some _ ->
                 ignore (Ctx.branch ctx b_trailing true);
                 Ctx.reject ctx "trailing input after expression"
               | None ->
                 ignore (Ctx.branch ctx b_trailing false);
                 k ctx)))
    K.stop

let parse ctx = Machine.run ctx machine

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
    machine = Some machine;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 60;
  }
