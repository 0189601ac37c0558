module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset
module Tchar = Pdf_taint.Tchar
module Tstring = Pdf_taint.Tstring

let registry = Site.create_registry "mjs"
let block = Site.block registry
let branch = Site.branch registry

(* {1 Lexer} *)

let s_lex = block "lex"
let s_lex_word = block "lex.word"
let s_lex_number = block "lex.number"
let s_lex_string = block "lex.string"
let s_lex_op = block "lex.op"
let b_ws = branch "lex.ws?"
let b_word_start = branch "lex.word-start?"
let b_word_more = branch "lex.word-more?"
let b_digit = branch "lex.digit?"
let b_quote_double = branch "lex.double-quote?"
let b_quote_single = branch "lex.single-quote?"
let b_num_hex = branch "lex.hex-prefix?"
let b_num_hex_digit = branch "lex.hex-digit?"
let b_num_more = branch "lex.digit-more?"
let b_num_dot = branch "lex.num-dot?"
let b_num_frac = branch "lex.frac-digit?"
let b_num_exp = branch "lex.exp?"
let b_num_exp_sign = branch "lex.exp-sign?"
let b_num_exp_digit = branch "lex.exp-digit?"
let b_str_close = branch "lex.string-close?"
let b_str_escape = branch "lex.string-escape?"
let b_str_newline = branch "lex.string-newline?"
let b_esc_known = branch "lex.escape-known?"

type token =
  | Punct of string
  | Kw of string
  | Ident
  | Number
  | Str
  | Eof

(* Keywords and builtin names are recognised by instrumented string
   comparison, which is what lets the parser-directed fuzzer synthesise
   them character by character. The list mirrors mjs's reserved words plus
   the builtins the paper counts as tokens. *)
let keywords =
  [
    "break"; "case"; "catch"; "const"; "continue"; "debugger"; "default";
    "delete"; "do"; "else"; "false"; "finally"; "for"; "function"; "if";
    "in"; "instanceof"; "let"; "new"; "null"; "return"; "switch"; "this";
    "throw"; "true"; "try"; "typeof"; "undefined"; "var"; "void"; "while";
    "with"; "NaN"; "Object"; "JSON";
  ]

let b_keyword = List.map (fun kw -> (kw, branch (Printf.sprintf "lex.kw-%s?" kw))) keywords

(* Builtin member names, compared after a '.' member access. *)
let members = [ "stringify"; "indexOf"; "length" ]
let b_member = List.map (fun m -> (m, branch (Printf.sprintf "lex.member-%s?" m))) members
let s_member_known = block "lex.member-known"

(* All multi-character operators and punctuation, matched through a trie
   whose every edge is a tracked character comparison. *)
let operators =
  [
    "{"; "}"; "("; ")"; "["; "]"; ";"; ","; "."; "?"; ":"; "~";
    "+"; "+="; "++"; "-"; "-="; "--"; "*"; "*="; "/"; "/=";
    "%"; "%="; "&"; "&="; "&&"; "|"; "|="; "||"; "^"; "^=";
    "="; "=="; "==="; "!"; "!="; "!=="; "<"; "<="; "<<"; "<<=";
    ">"; ">="; ">>"; ">>="; ">>>"; ">>>=";
  ]

type op_node = {
  mutable terminal : string option;
  mutable edges : (char * Site.t * op_node) list;
}

let op_root = { terminal = None; edges = [] }

let () =
  let add op =
    let node = ref op_root in
    String.iteri
      (fun i c ->
        let prefix = String.sub op 0 (i + 1) in
        match List.find_opt (fun (ec, _, _) -> ec = c) !node.edges with
        | Some (_, _, child) -> node := child
        | None ->
          let site = branch (Printf.sprintf "lex.op-%s?" prefix) in
          let child = { terminal = None; edges = [] } in
          !node.edges <- !node.edges @ [ (c, site, child) ];
          node := child)
      op;
    !node.terminal <- Some op
  in
  List.iter add operators

let word_start = Charset.union Charset.letters (Charset.of_string "_$")
let word_chars = Charset.union word_start Charset.digits
let ws = Charset.of_string " \t\r\n"

let hex_digits =
  Charset.union Charset.digits
    (Charset.union (Charset.range 'a' 'f') (Charset.range 'A' 'F'))

(* The lexer's comparisons, resolved once: each slot holds its site's
   outcomes and the event kind, so a tracked comparison builds no kind
   (and a [one_of] no charset and no label). *)
let sl_ws = Helpers.slot_set b_ws ~label:"whitespace" ws
let sl_word_start = Helpers.slot_set b_word_start ~label:"word-start" word_start
let sl_word_more = Helpers.slot_set b_word_more ~label:"word-char" word_chars
let sl_digit = Helpers.slot_range b_digit '0' '9'
let sl_num_hex = Helpers.slot_one_of b_num_hex "xX"
let sl_num_hex_digit = Helpers.slot_set b_num_hex_digit ~label:"hex-digit" hex_digits
let sl_num_more = Helpers.slot_set b_num_more ~label:"digit" Charset.digits
let sl_num_frac = Helpers.slot_set b_num_frac ~label:"digit" Charset.digits
let sl_num_exp = Helpers.slot_one_of b_num_exp "eE"
let sl_num_exp_sign = Helpers.slot_one_of b_num_exp_sign "+-"
let sl_num_exp_digit = Helpers.slot_set b_num_exp_digit ~label:"digit" Charset.digits
let escapes = "nrtbfv0\\'\""
let sl_esc_known = Helpers.slot_one_of b_esc_known escapes

(* Lexer nonterminals are frames around named bodies, which
   [Ctx.frame] hands the context: no closure per call. *)

let rec find_keyword ctx word = function
  | [] -> Ident
  | (kw, site) :: rest ->
    if Ctx.str_eq ctx site word kw then Kw kw else find_keyword ctx word rest

let lex_word_body ctx =
  find_keyword ctx (Helpers.read_set ctx sl_word_more word_chars) b_keyword

let lex_word ctx = Ctx.frame ctx s_lex_word lex_word_body ctx

let lex_number_body ctx =
  (match Ctx.next ctx with
   | None -> assert false (* caller saw a digit *)
   | Some first ->
     (match Ctx.peek ctx with
      | Some c
        when first.Tchar.ch = '0' && Ctx.one_of_slot ctx sl_num_hex c "xX" ->
        ignore (Ctx.next ctx);
        let ds = Helpers.read_set ctx sl_num_hex_digit hex_digits in
        if Tstring.length ds = 0 then Ctx.reject ctx "missing hex digits"
      | Some _ | None ->
        ignore (Helpers.read_set ctx sl_num_more Charset.digits);
        (match Ctx.peek ctx with
         | Some c when Ctx.eq ctx b_num_dot c '.' ->
           ignore (Ctx.next ctx);
           let frac = Helpers.read_set ctx sl_num_frac Charset.digits in
           if Tstring.length frac = 0 then Ctx.reject ctx "missing fraction digits"
         | Some _ | None -> ());
        (match Ctx.peek ctx with
         | Some c when Ctx.one_of_slot ctx sl_num_exp c "eE" ->
           ignore (Ctx.next ctx);
           (match Ctx.peek ctx with
            | Some c2 when Ctx.one_of_slot ctx sl_num_exp_sign c2 "+-" ->
              ignore (Ctx.next ctx)
            | Some _ | None -> ());
           let ex = Helpers.read_set ctx sl_num_exp_digit Charset.digits in
           if Tstring.length ex = 0 then Ctx.reject ctx "missing exponent digits"
         | Some _ | None -> ())));
  Number

let lex_number ctx = Ctx.frame ctx s_lex_number lex_number_body ctx

let rec string_chars ctx quote =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx "unterminated string"
  | Some c ->
    if Ctx.eq ctx b_str_close c quote then Str
    else if Ctx.eq ctx b_str_escape c '\\' then begin
      (match Ctx.next ctx with
       | None -> Ctx.reject ctx "unterminated escape"
       | Some e ->
         if not (Ctx.one_of_slot ctx sl_esc_known e escapes) then
           Ctx.reject ctx "unknown escape");
      string_chars ctx quote
    end
    else if Ctx.eq ctx b_str_newline c '\n' then
      Ctx.reject ctx "newline in string literal"
    else string_chars ctx quote

(* One string body per quote character, so the frame passes only the
   context. *)
let string_body ctx quote =
  ignore (Ctx.next ctx);
  (* opening quote *)
  string_chars ctx quote

let double_quoted ctx = string_body ctx '"'
let single_quoted ctx = string_body ctx '\''
let lex_string ctx body = Ctx.frame ctx s_lex_string body ctx

(* The edge out of [edges] whose character the next one matches, tried
   in order, or [no_edge]. *)
let no_edge = { terminal = None; edges = [] }

let rec op_edge ctx c = function
  | [] -> no_edge
  | (ec, site, child) :: rest ->
    if Ctx.eq ctx site c ec then child else op_edge ctx c rest

let rec walk_op ctx node matched =
  let child =
    match Ctx.peek ctx with None -> no_edge | Some c -> op_edge ctx c node.edges
  in
  if child != no_edge then begin
    ignore (Ctx.next ctx);
    walk_op ctx child child.terminal
  end
  else
    match matched with
    | Some op -> Punct op
    | None -> Ctx.reject ctx "unexpected character"

let lex_op_body ctx = walk_op ctx op_root None
let lex_op ctx = Ctx.frame ctx s_lex_op lex_op_body ctx

let next_token_body ctx =
  Helpers.skip_set ctx sl_ws ws;
  match Ctx.peek ctx with
  | None -> Eof
  | Some c ->
    if Ctx.in_set_slot ctx sl_word_start c word_start then lex_word ctx
    else if Ctx.in_range_slot ctx sl_digit c '0' '9' then lex_number ctx
    else if Ctx.eq ctx b_quote_double c '"' then lex_string ctx double_quoted
    else if Ctx.eq ctx b_quote_single c '\'' then lex_string ctx single_quoted
    else lex_op ctx

let next_token ctx = Ctx.frame ctx s_lex next_token_body ctx

(* {1 Parser} *)

let s_program = block "program"
let s_statement = block "statement"
let s_block = block "stmt.block"
let s_var = block "stmt.var"
let s_if = block "stmt.if"
let s_while = block "stmt.while"
let s_do = block "stmt.do"
let s_for = block "stmt.for"
let s_switch = block "stmt.switch"
let s_try = block "stmt.try"
let s_function = block "function"
let s_with = block "stmt.with"
let s_expr_stmt = block "stmt.expr"
let s_assign = block "expr.assign"
let s_cond = block "expr.cond"
let s_binary = block "expr.binary"
let s_unary = block "expr.unary"
let s_postfix = block "expr.postfix"
let s_call = block "expr.call"
let s_member = block "expr.member"
let s_primary = block "expr.primary"
let s_array_lit = block "expr.array"
let s_object_lit = block "expr.object"
let s_new = block "expr.new"
let b_stmt_kind = branch "stmt.kind-keyword?"
let b_block_more = branch "block.more?"
let b_var_init = branch "var.init?"
let b_var_more = branch "var.more?"
let b_else = branch "if.else?"
let b_for_in = branch "for.in?"
let b_for_cond = branch "for.cond?"
let b_for_step = branch "for.step?"
let b_case_more = branch "switch.case-more?"
let b_case_default = branch "switch.default?"
let b_catch = branch "try.catch?"
let b_finally = branch "try.finally?"
let b_return_value = branch "return.value?"
let b_fn_params_more = branch "function.params-more?"
let b_fn_anonymous = branch "function.anonymous?"
let b_assign_op = branch "assign.op?"
let b_ternary = branch "cond.ternary?"
let b_binop = branch "binary.op?"
let b_unop = branch "unary.op?"
let b_postop = branch "postfix.op?"
let b_call_more = branch "call.more?"
let b_args_more = branch "args.more?"
let b_elem_more = branch "array.more?"
let b_prop_more = branch "object.more?"
let b_prop_key = branch "object.key-kind?"
let b_new_args = branch "new.args?"
let b_trailing = branch "program.trailing?"
let b_semicolon = branch "stmt.semicolon"

type state = { ctx : Ctx.t; mutable tok : token }

(* Token equality by pattern, and membership in a list by it: [=] and
   [List.mem] on tokens or strings would call the polymorphic
   [caml_equal] for every token test the parser makes. *)
let tok_eq a b =
  match (a, b) with
  | Punct x, Punct y | Kw x, Kw y -> String.equal x y
  | Ident, Ident | Number, Number | Str, Str | Eof, Eof -> true
  | (Punct _ | Kw _ | Ident | Number | Str | Eof), _ -> false

let rec tok_mem tok = function
  | [] -> false
  | t :: rest -> tok_eq tok t || tok_mem tok rest

let rec str_mem s = function
  | [] -> false
  | x :: rest -> String.equal s x || str_mem s rest

let advance st = st.tok <- next_token st.ctx

let b_expect_lparen = branch "expect.lparen"
let b_expect_rparen = branch "expect.rparen"
let b_expect_lbrace = branch "expect.lbrace"
let b_expect_rbrace = branch "expect.rbrace"
let b_expect_rbracket = branch "expect.rbracket"
let b_expect_colon = branch "expect.colon"
let b_expect_while = branch "expect.while"
let b_expect_ident = branch "expect.ident"

(* An expected token and everything its check needs, built once: the
   token, the branch site and the reject message. *)
type expectation = { tok : token; site : Site.t; msg : string }

let punct p site = { tok = Punct p; site; msg = Printf.sprintf "expected %S" p }
let keyword kw site = { tok = Kw kw; site; msg = Printf.sprintf "expected keyword %S" kw }
let x_lparen = punct "(" b_expect_lparen
let x_rparen = punct ")" b_expect_rparen
let x_lbrace = punct "{" b_expect_lbrace
let x_rbrace = punct "}" b_expect_rbrace
let x_rbracket = punct "]" b_expect_rbracket
let x_colon = punct ":" b_expect_colon
let x_semicolon = punct ";" b_semicolon
let x_while = keyword "while" b_expect_while

let expect st x =
  if Ctx.branch st.ctx x.site (tok_eq st.tok x.tok) then advance st
  else Ctx.reject st.ctx x.msg

let assign_ops =
  [ "="; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "<<="; ">>="; ">>>=" ]

let is_assign_op = function Punct p -> str_mem p assign_ops | _ -> false

(* Binary operator precedence tiers, loosest first. [Kw] entries cover
   [instanceof] and [in]. *)
let binary_tiers =
  [
    [ Punct "||" ];
    [ Punct "&&" ];
    [ Punct "|" ];
    [ Punct "^" ];
    [ Punct "&" ];
    [ Punct "=="; Punct "!="; Punct "==="; Punct "!==" ];
    [ Punct "<"; Punct ">"; Punct "<="; Punct ">="; Kw "instanceof"; Kw "in" ];
    [ Punct "<<"; Punct ">>"; Punct ">>>" ];
    [ Punct "+"; Punct "-" ];
    [ Punct "*"; Punct "/"; Punct "%" ];
  ]

let unary_ops = [ Punct "!"; Punct "~"; Punct "+"; Punct "-"; Punct "++"; Punct "--" ]
let unary_kws = [ "typeof"; "delete"; "void" ]

(* A member name after '.', compared against the builtin names. *)
let rec find_member ctx word = function
  | [] -> ()
  | (m, site) :: rest ->
    if Ctx.str_eq ctx site word m then Ctx.cover ctx s_member_known
    else find_member ctx word rest

(* The innermost operand of the binary tiers, tied to [unary] below the
   recursive descent: the tier functions are built once, here, so no
   frame has to carry a tier list as its argument. *)
let operand = ref (fun (_ : state) -> ())

(* One function per precedence tier, loosest first: a frame around the
   next tighter tier followed by a loop over this tier's operators. *)
let binary =
  List.fold_right
    (fun ops tighter ->
      let rec more st =
        Ctx.tick st.ctx;
        if Ctx.branch st.ctx b_binop (tok_mem st.tok ops) then begin
          advance st;
          tighter st;
          more st
        end
      in
      let body st =
        tighter st;
        more st
      in
      fun st -> Ctx.frame st.ctx s_binary body st)
    binary_tiers
    (fun st -> !operand st)

(* Each nonterminal is a frame around a named body, which [Ctx.frame]
   hands the parser state: no closure per call. *)
let rec statement st = Ctx.frame st.ctx s_statement statement_body st

and statement_body st =
  Ctx.tick st.ctx;
  match st.tok with
  | Punct "{" -> block_stmt st
  | Punct ";" -> advance st
  | Kw ("var" | "let" | "const") -> var_stmt st
  | Kw "if" -> if_stmt st
  | Kw "while" -> while_stmt st
  | Kw "do" -> do_stmt st
  | Kw "for" -> for_stmt st
  | Kw "switch" -> switch_stmt st
  | Kw "try" -> try_stmt st
  | Kw "function" -> function_decl st ~named:true
  | Kw "with" -> with_stmt st
  | Kw "debugger" ->
    advance st;
    expect st x_semicolon
  | Kw "break" | Kw "continue" ->
    ignore (Ctx.branch st.ctx b_stmt_kind true);
    advance st;
    expect st x_semicolon
  | Kw "return" ->
    advance st;
    if Ctx.branch st.ctx b_return_value (not (tok_eq st.tok (Punct ";"))) then
      expression st;
    expect st x_semicolon
  | Kw "throw" ->
    advance st;
    expression st;
    expect st x_semicolon
  | Punct _ | Kw _ | Ident | Number | Str ->
    Ctx.frame st.ctx s_expr_stmt expression_statement st
  | Eof -> Ctx.reject st.ctx "expected statement, found end of input"

and expression_statement st =
  expression st;
  expect st x_semicolon

and block_stmt st = Ctx.frame st.ctx s_block block_body st

and block_body st =
  expect st x_lbrace;
  block_stmts st;
  expect st x_rbrace

and block_stmts st =
  if
    Ctx.branch st.ctx b_block_more
      ((not (tok_eq st.tok (Punct "}"))) && not (tok_eq st.tok Eof))
  then begin
    statement st;
    block_stmts st
  end

and var_stmt st = Ctx.frame st.ctx s_var var_body st

and var_body st =
  advance st;
  (* var/let/const *)
  var_declarations st;
  expect st x_semicolon

and var_declarations st =
  (if Ctx.branch st.ctx b_expect_ident (tok_eq st.tok Ident) then advance st
   else Ctx.reject st.ctx "expected variable name");
  if Ctx.branch st.ctx b_var_init (tok_eq st.tok (Punct "=")) then begin
    advance st;
    assignment st
  end;
  if Ctx.branch st.ctx b_var_more (tok_eq st.tok (Punct ",")) then begin
    advance st;
    var_declarations st
  end

and if_stmt st = Ctx.frame st.ctx s_if if_body st

and if_body st =
  advance st;
  expect st x_lparen;
  expression st;
  expect st x_rparen;
  statement st;
  if Ctx.branch st.ctx b_else (tok_eq st.tok (Kw "else")) then begin
    advance st;
    statement st
  end

and while_stmt st = Ctx.frame st.ctx s_while while_body st

and while_body st =
  advance st;
  expect st x_lparen;
  expression st;
  expect st x_rparen;
  statement st

and do_stmt st = Ctx.frame st.ctx s_do do_body st

and do_body st =
  advance st;
  statement st;
  expect st x_while;
  expect st x_lparen;
  expression st;
  expect st x_rparen;
  expect st x_semicolon

and for_stmt st = Ctx.frame st.ctx s_for for_body st

and for_body st =
  advance st;
  expect st x_lparen;
  (* Initialiser: empty, a declaration, or an expression; [for (x in e)]
     is recognised after a declaration-free identifier. *)
  (match st.tok with
   | Punct ";" -> ()
   | Kw ("var" | "let" | "const") ->
     advance st;
     var_declarations st
   | Punct _ | Kw _ | Ident | Number | Str | Eof -> expression st);
  if Ctx.branch st.ctx b_for_in (tok_eq st.tok (Kw "in")) then begin
    advance st;
    expression st;
    expect st x_rparen;
    statement st
  end
  else if tok_eq st.tok (Punct ")") then begin
    (* for (x in y): the [in] was consumed inside the initialiser
       expression (the relational tier), leaving the closing paren. *)
    advance st;
    statement st
  end
  else begin
    expect st x_semicolon;
    if Ctx.branch st.ctx b_for_cond (not (tok_eq st.tok (Punct ";"))) then
      expression st;
    expect st x_semicolon;
    if Ctx.branch st.ctx b_for_step (not (tok_eq st.tok (Punct ")"))) then
      expression st;
    expect st x_rparen;
    statement st
  end

and switch_stmt st = Ctx.frame st.ctx s_switch switch_body st

and switch_body st =
  advance st;
  expect st x_lparen;
  expression st;
  expect st x_rparen;
  expect st x_lbrace;
  switch_clauses st;
  expect st x_rbrace

and switch_clauses st =
  if Ctx.branch st.ctx b_case_more (tok_eq st.tok (Kw "case")) then begin
    advance st;
    expression st;
    expect st x_colon;
    clause_stmts st;
    switch_clauses st
  end
  else if Ctx.branch st.ctx b_case_default (tok_eq st.tok (Kw "default"))
  then begin
    advance st;
    expect st x_colon;
    clause_stmts st;
    switch_clauses st
  end

and clause_stmts st =
  if
    (not (tok_eq st.tok (Kw "case")))
    && (not (tok_eq st.tok (Kw "default")))
    && (not (tok_eq st.tok (Punct "}")))
    && not (tok_eq st.tok Eof)
  then begin
    statement st;
    clause_stmts st
  end

and try_stmt st = Ctx.frame st.ctx s_try try_body st

and try_body st =
  advance st;
  block_stmt st;
  let caught = Ctx.branch st.ctx b_catch (tok_eq st.tok (Kw "catch")) in
  if caught then begin
    advance st;
    expect st x_lparen;
    (if Ctx.branch st.ctx b_expect_ident (tok_eq st.tok Ident) then advance st
     else Ctx.reject st.ctx "expected exception name");
    expect st x_rparen;
    block_stmt st
  end;
  if Ctx.branch st.ctx b_finally (tok_eq st.tok (Kw "finally")) then begin
    advance st;
    block_stmt st
  end
  else if not caught then Ctx.reject st.ctx "try without catch or finally"

and with_stmt st = Ctx.frame st.ctx s_with with_body st

and with_body st =
  advance st;
  expect st x_lparen;
  expression st;
  expect st x_rparen;
  statement st

(* One body per case, so the frame passes only the parser state. *)
and function_decl st ~named =
  Ctx.frame st.ctx s_function
    (if named then named_function_body else function_expression_body)
    st

and named_function_body st = function_rest st ~named:true
and function_expression_body st = function_rest st ~named:false

and function_rest st ~named =
  advance st;
  (* function *)
  if Ctx.branch st.ctx b_fn_anonymous (tok_eq st.tok Ident) then advance st
  else if named then Ctx.reject st.ctx "expected function name";
  expect st x_lparen;
  if not (tok_eq st.tok (Punct ")")) then function_params st;
  expect st x_rparen;
  block_stmt st

and function_params st =
  (if Ctx.branch st.ctx b_expect_ident (tok_eq st.tok Ident) then advance st
   else Ctx.reject st.ctx "expected parameter name");
  if Ctx.branch st.ctx b_fn_params_more (tok_eq st.tok (Punct ",")) then begin
    advance st;
    function_params st
  end

and expression st = assignment st
and assignment st = Ctx.frame st.ctx s_assign assignment_body st

and assignment_body st =
  conditional st;
  if Ctx.branch st.ctx b_assign_op (is_assign_op st.tok) then begin
    (* Semantic lvalue checking is disabled, as in the paper's setup. *)
    advance st;
    assignment st
  end

and conditional st = Ctx.frame st.ctx s_cond conditional_body st

and conditional_body st =
  binary st;
  if Ctx.branch st.ctx b_ternary (tok_eq st.tok (Punct "?")) then begin
    advance st;
    assignment st;
    expect st x_colon;
    assignment st
  end

and unary st = Ctx.frame st.ctx s_unary unary_body st

and unary_body st =
  if Ctx.branch st.ctx b_unop (tok_mem st.tok unary_ops) then begin
    advance st;
    unary st
  end
  else
    match st.tok with
    | Kw kw when str_mem kw unary_kws ->
      advance st;
      unary st
    | Kw "new" -> new_expr st
    | Punct _ | Kw _ | Ident | Number | Str | Eof -> postfix st

and new_expr st = Ctx.frame st.ctx s_new new_body st

and new_body st =
  advance st;
  (* new *)
  primary st;
  if Ctx.branch st.ctx b_new_args (tok_eq st.tok (Punct "(")) then call_args st;
  call_tail st

and postfix st = Ctx.frame st.ctx s_postfix postfix_body st

and postfix_body st =
  primary st;
  call_tail st;
  if
    Ctx.branch st.ctx b_postop
      (tok_eq st.tok (Punct "++") || tok_eq st.tok (Punct "--"))
  then
    advance st

and call_tail st = Ctx.frame st.ctx s_call call_tail_body st

and call_tail_body st =
  Ctx.tick st.ctx;
  if Ctx.branch st.ctx b_call_more (tok_eq st.tok (Punct ".")) then begin
    advance_member st;
    call_tail_body st
  end
  else if tok_eq st.tok (Punct "[") then begin
    advance st;
    expression st;
    expect st x_rbracket;
    call_tail_body st
  end
  else if tok_eq st.tok (Punct "(") then begin
    call_args st;
    call_tail_body st
  end

(* A member access: read the member word with the instrumented lexer and
   compare it against the builtin names (how [indexOf], [stringify] and
   [length] become reachable tokens). Unknown members are fine. *)
and advance_member st = Ctx.frame st.ctx s_member member_body st

and member_body st =
  (* The '.' token is current, so the stream cursor sits right after it:
     read the member word directly so its characters stay comparable. *)
  Helpers.skip_set st.ctx sl_ws ws;
  (match Ctx.peek st.ctx with
   | Some c when Ctx.in_set_slot st.ctx sl_word_start c word_start ->
     find_member st.ctx (Helpers.read_set st.ctx sl_word_more word_chars) b_member
   | Some _ | None -> Ctx.reject st.ctx "expected member name");
  advance st

and call_args st =
  expect st x_lparen;
  if not (tok_eq st.tok (Punct ")")) then call_arg_list st;
  expect st x_rparen

and call_arg_list st =
  assignment st;
  if Ctx.branch st.ctx b_args_more (tok_eq st.tok (Punct ",")) then begin
    advance st;
    call_arg_list st
  end

and primary st = Ctx.frame st.ctx s_primary primary_body st

and primary_body st =
  match st.tok with
  | Number | Str | Ident -> advance st
  | Kw ("true" | "false" | "null" | "undefined" | "NaN" | "this" | "Object" | "JSON") ->
    advance st
  | Kw "function" -> function_decl st ~named:false
  | Kw "new" -> new_expr st
  | Punct "(" ->
    advance st;
    expression st;
    expect st x_rparen
  | Punct "[" -> array_literal st
  | Punct "{" -> object_literal st
  | Punct _ | Kw _ | Eof -> Ctx.reject st.ctx "expected expression"

and array_literal st = Ctx.frame st.ctx s_array_lit array_body st

and array_body st =
  advance st;
  (* '[' *)
  if not (tok_eq st.tok (Punct "]")) then array_elements st;
  expect st x_rbracket

and array_elements st =
  assignment st;
  if Ctx.branch st.ctx b_elem_more (tok_eq st.tok (Punct ",")) then begin
    advance st;
    array_elements st
  end

and object_literal st = Ctx.frame st.ctx s_object_lit object_body st

and object_body st =
  advance st;
  (* '{' *)
  if not (tok_eq st.tok (Punct "}")) then object_properties st;
  expect st x_rbrace

and object_properties st =
  (match st.tok with
   | Ident | Str | Number | Kw _ ->
     ignore (Ctx.branch st.ctx b_prop_key true);
     advance st
   | Punct _ | Eof ->
     ignore (Ctx.branch st.ctx b_prop_key false);
     Ctx.reject st.ctx "expected property key");
  expect st x_colon;
  assignment st;
  if Ctx.branch st.ctx b_prop_more (tok_eq st.tok (Punct ",")) then begin
    advance st;
    object_properties st
  end

let () = operand := unary

let rec program_stmts (st : state) =
  if not (tok_eq st.tok Eof) then begin
    statement st;
    program_stmts st
  end

let parse_body ctx =
  let st = { ctx; tok = next_token ctx } in
  if tok_eq st.tok Eof then Ctx.reject ctx "empty program";
  program_stmts st;
  ignore (Ctx.branch ctx b_trailing (not (tok_eq st.tok Eof)))

let parse ctx = Ctx.frame ctx s_program parse_body ctx

(* {1 Token inventory (Table 4 shape)} *)

let tokens =
  let lit = Token.literal in
  let punct1 = [ "{"; "}"; "("; ")"; "["; "]"; ";"; ","; "<"; ">"; "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "!"; "~"; "?"; ":"; "="; "." ] in
  let punct2 = [ "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "<<"; ">>" ] in
  let punct3 = [ "==="; "!=="; "<<="; ">>="; ">>>" ] in
  List.map lit punct1
  @ [ Token.make "identifier" 1; Token.make "number" 1 ]
  @ List.map lit punct2
  @ [ lit "if"; lit "in"; lit "do"; Token.make "string" 2 ]
  @ List.map lit punct3
  @ [ lit "for"; lit "try"; lit "let"; lit "new"; lit "var"; lit "NaN" ]
  @ [ lit ">>>="; lit "true"; lit "null"; lit "void"; lit "with"; lit "else"; lit "this"; lit "case"; lit "JSON" ]
  @ [ lit "false"; lit "throw"; lit "while"; lit "break"; lit "catch"; lit "const" ]
  @ [ lit "return"; lit "delete"; lit "typeof"; lit "Object"; lit "switch"; lit "length" ]
  @ [ lit "default"; lit "finally"; lit "indexOf" ]
  @ [ lit "continue"; lit "function"; lit "debugger" ]
  @ [ lit "undefined"; lit "stringify" ]
  @ [ lit "instanceof" ]

(* Untracked scanner over a known-valid input, longest-match. *)
let tokenize input =
  let tags = ref [] in
  let push tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  let n = String.length input in
  let ops_by_length =
    List.sort (fun a b -> compare (String.length b) (String.length a)) operators
  in
  let is_word_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false
  in
  let keyword_tags =
    keywords @ members
  in
  let rec scan i =
    if i < n then
      match input.[i] with
      | ' ' | '\t' | '\r' | '\n' -> scan (i + 1)
      | '"' | '\'' ->
        push "string";
        let q = input.[i] in
        let rec close j =
          if j >= n then j
          else if input.[j] = '\\' then close (j + 2)
          else if input.[j] = q then j + 1
          else close (j + 1)
        in
        scan (close (i + 1))
      | '0' .. '9' ->
        push "number";
        let rec num j =
          if
            j < n
            && (match input.[j] with
                | '0' .. '9' | '.' | 'x' | 'X' | 'e' | 'E' | 'a' .. 'd' | 'f' | 'A' .. 'D' | 'F' -> true
                | _ -> false)
          then num (j + 1)
          else j
        in
        scan (num (i + 1))
      | c when is_word_char c ->
        let rec word j = if j < n && is_word_char input.[j] then word (j + 1) else j in
        let j = word i in
        let w = String.sub input i (j - i) in
        if List.mem w keyword_tags then push w else push "identifier";
        scan j
      | _ ->
        let matched =
          List.find_opt
            (fun op ->
              let l = String.length op in
              i + l <= n && String.sub input i l = op)
            ops_by_length
        in
        (match matched with
         | Some op ->
           push op;
           scan (i + String.length op)
         | None -> scan (i + 1))
  in
  scan 0;
  List.rev !tags

let subject =
  {
    Subject.name = "mjs";
    description = "JavaScript subset (paper subject: mjs, semantic checks off)";
    registry;
    parse;
    machine = None;
    fuel = 8_000;
    tokens;
    tokenize;
    original_loc = 10_920;
  }
