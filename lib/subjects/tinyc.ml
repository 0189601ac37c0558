module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset

type token =
  | Sym of char
  | Kw_if
  | Kw_else
  | Kw_while
  | Kw_do
  | Id of int  (** variable index 0..25 *)
  | Num  (** its value is the parser state's [num] *)
  | Eof

(* Token equality by pattern: [=] on tokens would call the polymorphic
   [caml_equal] for every token test the parser makes. *)
let tok_eq a b =
  match (a, b) with
  | Sym x, Sym y -> Char.equal x y
  | Id x, Id y -> Int.equal x y
  | Kw_if, Kw_if | Kw_else, Kw_else | Kw_while, Kw_while | Kw_do, Kw_do | Num, Num
  | Eof, Eof ->
    true
  | (Sym _ | Kw_if | Kw_else | Kw_while | Kw_do | Id _ | Num | Eof), _ -> false

(* The identifier tokens, built once. A symbol's token is built with its
   branch and a number's value is kept in the parser state, so lexing a
   token allocates nothing. *)
let ids = Array.init 26 (fun v -> Id v)

(* The subject is functorised so the paper-faithful parser and the §7.2
   token-taint variant share one implementation: the only difference is
   whether a token-kind expectation emits a comparison event at the
   token's input position. *)
module Make (Config : sig
  val name : string
  val token_taints : bool

  val semantic_checks : bool
  (** §7.3: when on, execution rejects programs that read a variable
      before any assignment to it — a context-sensitive restriction the
      parser cannot see. *)
end) =
struct
let registry = Site.create_registry Config.name
let s_parse = Site.block registry "parse"
let s_lex = Site.block registry "lex"
let s_statement = Site.block registry "statement"
let s_paren_expr = Site.block registry "paren-expr"
let s_expr = Site.block registry "expr"
let s_test = Site.block registry "test"
let s_sum = Site.block registry "sum"
let s_term = Site.block registry "term"
let s_exec = Site.block registry "exec"
let s_exec_if = Site.block registry "exec.if"
let s_exec_while = Site.block registry "exec.while"
let s_exec_do = Site.block registry "exec.do"
let s_exec_assign = Site.block registry "exec.assign"
let b_ws = Site.branch registry "lex.ws?"
let b_letter = Site.branch registry "lex.letter?"
let b_digit = Site.branch registry "lex.digit?"

let symbols = "<+-;={}()"

(* One branch per symbol, as in the original lexer's if/else-if chain,
   with the symbol's token. *)
let b_symbols =
  List.map
    (fun c -> (c, Site.branch registry (Printf.sprintf "lex.sym-%c?" c), Sym c))
    (List.init (String.length symbols) (String.get symbols))
let b_kw_if = Site.branch registry "lex.kw-if?"
let b_kw_else = Site.branch registry "lex.kw-else?"
let b_kw_while = Site.branch registry "lex.kw-while?"
let b_kw_do = Site.branch registry "lex.kw-do?"
let b_word_is_id = Site.branch registry "lex.word-is-id?"
let b_stmt_if = Site.branch registry "stmt.if?"
let b_stmt_else = Site.branch registry "stmt.else?"
let b_stmt_while = Site.branch registry "stmt.while?"
let b_stmt_do = Site.branch registry "stmt.do?"
let b_stmt_block = Site.branch registry "stmt.block?"
let b_stmt_empty = Site.branch registry "stmt.empty?"
let b_block_more = Site.branch registry "block.more?"
let b_lparen = Site.branch registry "paren.lparen"
let b_rparen = Site.branch registry "paren.rparen"
let b_semicolon = Site.branch registry "stmt.semicolon"
let b_do_while = Site.branch registry "do.while-kw"
let b_assign = Site.branch registry "expr.assign?"
let b_lvalue = Site.branch registry "expr.lvalue?"
let b_less = Site.branch registry "test.less?"
let b_add = Site.branch registry "sum.add?"
let b_sub = Site.branch registry "sum.sub?"
let b_term_id = Site.branch registry "term.id?"
let b_term_num = Site.branch registry "term.num?"
let b_term_paren = Site.branch registry "term.paren?"
let b_exec_cond = Site.branch registry "exec.cond?"
let b_exec_less = Site.branch registry "exec.less?"
let b_sem_defined = Site.branch registry "exec.sem-defined?"
let b_trailing = Site.branch registry "parse.trailing?"

type expr =
  | E_assign of int * expr
  | E_less of expr * expr
  | E_add of expr * expr
  | E_sub of expr * expr
  | E_id of int
  | E_num of int

type stmt =
  | S_if of expr * stmt * stmt option
  | S_while of expr * stmt
  | S_do of stmt * expr
  | S_block of stmt list
  | S_expr of expr
  | S_empty

type parser_state = {
  ctx : Ctx.t;
  mutable tok : token;
  mutable tok_start : int;
  mutable num : int; (* the value of the last [Num] token *)
}

let ws = Charset.of_string " \t\r\n"
let lower = Charset.range 'a' 'z'

(* The lexer's comparisons, resolved once: each slot holds its site's
   outcomes and the event kind, and each keyword slot its site's
   outcomes and suffix kinds, so a tracked comparison builds no kind. *)
let sl_ws = Helpers.slot_set b_ws ~label:"whitespace" ws
let sl_letter_first = Helpers.slot_range b_letter 'a' 'z'
let sl_letter = Helpers.slot_set b_letter ~label:"letter" lower
let sl_digit_first = Helpers.slot_range b_digit '0' '9'
let sl_digit = Helpers.slot_set b_digit ~label:"digit" Charset.digits
let kw_if = Ctx.keyword b_kw_if "if"
let kw_else = Ctx.keyword b_kw_else "else"
let kw_while = Ctx.keyword b_kw_while "while"
let kw_do = Ctx.keyword b_kw_do "do"

(* Rejections, built once. *)
let r_char = Ctx.rejection "unexpected character"
let r_keyword = Ctx.rejection "unknown keyword"
let r_lvalue = Ctx.rejection "assignment to non-variable"
let r_term = Ctx.rejection "expected term"
let r_do_while = Ctx.rejection "expected 'while' after do-body"
let r_empty = Ctx.rejection "empty program"
let r_trailing = Ctx.rejection "trailing input after statement"

(* The symbol branches in the original lexer's if/else-if order: the
   first whose character matches makes the token. *)
let rec lex_symbol ctx c = function
  | [] -> Ctx.reject ctx r_char
  | (sym, site, tok) :: rest ->
    if Ctx.eq ctx site c sym then begin
      ignore (Ctx.next ctx);
      tok
    end
    else lex_symbol ctx c rest

(* The value of the digits [input[from, stop)], accumulated with silent
   wrap-around, as C's int arithmetic does; [int_of_string] would fail
   on fuzzer-generated digit floods. *)
let number_value input from stop =
  let value = ref 0 in
  for i = from to stop - 1 do
    value := (!value * 10) + (Char.code input.[i] - Char.code '0')
  done;
  !value

(* The next token, and the input position where it starts, into [st].
   A word and a number are spans of the input, ending at the cursor. *)
let lex st =
  let ctx = st.ctx in
  Helpers.skip_set ctx sl_ws ws;
  st.tok_start <- Ctx.pos ctx;
  st.tok <-
    (match Ctx.peek ctx with
     | None -> Eof
     | Some c ->
       if Ctx.in_range_slot ctx sl_letter_first c 'a' 'z' then begin
         let from = Helpers.read_set ctx sl_letter lower in
         if Ctx.str_eq ctx kw_if ~from then Kw_if
         else if Ctx.str_eq ctx kw_else ~from then Kw_else
         else if Ctx.str_eq ctx kw_while ~from then Kw_while
         else if Ctx.str_eq ctx kw_do ~from then Kw_do
         else if Ctx.branch ctx b_word_is_id (Ctx.pos ctx - from = 1) then
           ids.(Char.code (Ctx.input ctx).[from] - Char.code 'a')
         else Ctx.reject ctx r_keyword
       end
       else if Ctx.in_range_slot ctx sl_digit_first c '0' '9' then begin
         let from = Helpers.read_set ctx sl_digit Charset.digits in
         st.num <- number_value (Ctx.input ctx) from (Ctx.pos ctx);
         Num
       end
       else lex_symbol ctx c b_symbols)

let advance st = Ctx.frame st.ctx s_lex lex st

(* An expected symbol and everything its check needs, built once: the
   token, the branch site, the keyword slot of the spelling a §7.2 event
   splices in and the rejection. *)
type expectation = {
  sym : token;
  site : Site.t;
  spelling : Ctx.keyword;
  reject : Ctx.rejection;
}

let expectation c site =
  {
    sym = Sym c;
    site;
    spelling = Ctx.keyword site (String.make 1 c);
    reject = Ctx.rejection (Printf.sprintf "expected %C" c);
  }

let x_lparen = expectation '(' b_lparen
let x_rparen = expectation ')' b_rparen
let x_semicolon = expectation ';' b_semicolon
let x_rbrace = expectation '}' b_stmt_block
let kw_do_while = Ctx.keyword b_do_while "while"

(* Token-kind expectation. The lexer's dispatch comparisons already
   happened; the structural check here has no data flow from the input
   (§7.2), unless the token-taint extension re-attaches it. *)
let expect_sym st x =
  let matched = tok_eq st.tok x.sym in
  let matched =
    if Config.token_taints then
      Ctx.expect_token st.ctx x.spelling ~at:st.tok_start ~matched
    else Ctx.branch st.ctx x.site matched
  in
  if matched then advance st else Ctx.reject st.ctx x.reject

(* Each nonterminal is a frame around a named body, which [Ctx.frame]
   hands the parser state: no closure per call. *)
let rec expr st = Ctx.frame st.ctx s_expr expr_body st

and expr_body st =
  let left = test st in
  if Ctx.branch st.ctx b_assign (tok_eq st.tok (Sym '=')) then begin
    match left with
    | E_id v ->
      ignore (Ctx.branch st.ctx b_lvalue true);
      advance st;
      E_assign (v, expr st)
    | E_assign _ | E_less _ | E_add _ | E_sub _ | E_num _ ->
      ignore (Ctx.branch st.ctx b_lvalue false);
      Ctx.reject st.ctx r_lvalue
  end
  else left

and test st = Ctx.frame st.ctx s_test test_body st

and test_body st =
  let left = sum st in
  if Ctx.branch st.ctx b_less (tok_eq st.tok (Sym '<')) then begin
    advance st;
    E_less (left, sum st)
  end
  else left

and sum st = Ctx.frame st.ctx s_sum sum_body st
and sum_body st = sum_more st (term st)

and sum_more st acc =
  if Ctx.branch st.ctx b_add (tok_eq st.tok (Sym '+')) then begin
    advance st;
    sum_more st (E_add (acc, term st))
  end
  else if Ctx.branch st.ctx b_sub (tok_eq st.tok (Sym '-')) then begin
    advance st;
    sum_more st (E_sub (acc, term st))
  end
  else acc

and term st = Ctx.frame st.ctx s_term term_body st

and term_body st =
  match st.tok with
  | Id v ->
    ignore (Ctx.branch st.ctx b_term_id true);
    advance st;
    E_id v
  | Num ->
    ignore (Ctx.branch st.ctx b_term_num true);
    let n = st.num in
    advance st;
    E_num n
  | Sym '(' ->
    ignore (Ctx.branch st.ctx b_term_paren true);
    paren_expr st
  | Sym _ | Kw_if | Kw_else | Kw_while | Kw_do | Eof ->
    ignore (Ctx.branch st.ctx b_term_paren false);
    Ctx.reject st.ctx r_term

and paren_expr st = Ctx.frame st.ctx s_paren_expr paren_expr_body st

and paren_expr_body st =
  expect_sym st x_lparen;
  let e = expr st in
  expect_sym st x_rparen;
  e

let rec statement st = Ctx.frame st.ctx s_statement statement_body st

and statement_body st =
  Ctx.tick st.ctx;
  if Ctx.branch st.ctx b_stmt_if (tok_eq st.tok Kw_if) then begin
    advance st;
    let cond = paren_expr st in
    let then_branch = statement st in
    if Ctx.branch st.ctx b_stmt_else (tok_eq st.tok Kw_else) then begin
      advance st;
      S_if (cond, then_branch, Some (statement st))
    end
    else S_if (cond, then_branch, None)
  end
  else if Ctx.branch st.ctx b_stmt_while (tok_eq st.tok Kw_while) then begin
    advance st;
    let cond = paren_expr st in
    S_while (cond, statement st)
  end
  else if Ctx.branch st.ctx b_stmt_do (tok_eq st.tok Kw_do) then begin
    advance st;
    let body = statement st in
    let matched = tok_eq st.tok Kw_while in
    let matched =
      if Config.token_taints then
        Ctx.expect_token st.ctx kw_do_while ~at:st.tok_start ~matched
      else Ctx.branch st.ctx b_do_while matched
    in
    if matched then begin
      advance st;
      let cond = paren_expr st in
      expect_sym st x_semicolon;
      S_do (body, cond)
    end
    else Ctx.reject st.ctx r_do_while
  end
  else if Ctx.branch st.ctx b_stmt_block (tok_eq st.tok (Sym '{')) then begin
    advance st;
    block_stmts st []
  end
  else if Ctx.branch st.ctx b_stmt_empty (tok_eq st.tok (Sym ';')) then begin
    advance st;
    S_empty
  end
  else begin
    let e = expr st in
    expect_sym st x_semicolon;
    S_expr e
  end

and block_stmts st acc =
  if
    Ctx.branch st.ctx b_block_more
      ((not (tok_eq st.tok (Sym '}'))) && not (tok_eq st.tok Eof))
  then block_stmts st (statement st :: acc)
  else begin
    expect_sym st x_rbrace;
    S_block (List.rev acc)
  end

(* §7.3's rejection for each variable, built once. *)
let undefined =
  Array.init 26 (fun v ->
      Ctx.rejection
        (Printf.sprintf "use of variable '%c' before assignment"
           (Char.chr (Char.code 'a' + v))))

(* Execution, as in the paper's evaluation setup (tinyC programs are run
   after parsing). The fuel budget turns infinite loops into hangs. *)
type exec_state = {
  ex_ctx : Ctx.t;
  vars : int array;
  assigned : bool array;
  program : stmt;
}

let rec eval ex = function
  | E_assign (v, e) ->
    Ctx.cover ex.ex_ctx s_exec_assign;
    let value = eval ex e in
    ex.vars.(v) <- value;
    ex.assigned.(v) <- true;
    value
  | E_less (a, b) ->
    if Ctx.branch ex.ex_ctx b_exec_less (eval ex a < eval ex b) then 1 else 0
  | E_add (a, b) -> eval ex a + eval ex b
  | E_sub (a, b) -> eval ex a - eval ex b
  | E_id v ->
    if Config.semantic_checks then begin
      if not (Ctx.branch ex.ex_ctx b_sem_defined ex.assigned.(v)) then
        Ctx.reject ex.ex_ctx undefined.(v)
    end;
    ex.vars.(v)
  | E_num n -> n

let rec run ex = function
  | S_if (cond, then_branch, else_branch) ->
    Ctx.cover ex.ex_ctx s_exec_if;
    if Ctx.branch ex.ex_ctx b_exec_cond (eval ex cond <> 0) then run ex then_branch
    else (match else_branch with Some s -> run ex s | None -> ())
  | S_while (cond, body) ->
    Ctx.cover ex.ex_ctx s_exec_while;
    while Ctx.branch ex.ex_ctx b_exec_cond (eval ex cond <> 0) do
      Ctx.tick ex.ex_ctx;
      run ex body
    done
  | S_do (body, cond) ->
    Ctx.cover ex.ex_ctx s_exec_do;
    let continue = ref true in
    while !continue do
      Ctx.tick ex.ex_ctx;
      run ex body;
      continue := Ctx.branch ex.ex_ctx b_exec_cond (eval ex cond <> 0)
    done
  | S_block stmts -> run_all ex stmts
  | S_expr e -> ignore (eval ex e)
  | S_empty -> ()

and run_all ex = function
  | [] -> ()
  | s :: rest ->
    run ex s;
    run_all ex rest

let exec_body ex = run ex ex.program

let exec ctx program =
  Ctx.frame ctx s_exec exec_body
    { ex_ctx = ctx; vars = Array.make 26 0; assigned = Array.make 26 false; program }

let parse_body ctx =
  let st = { ctx; tok = Eof; tok_start = 0; num = 0 } in
  advance st;
  if tok_eq st.tok Eof then Ctx.reject ctx r_empty;
  let program = statement st in
  if Ctx.branch ctx b_trailing (not (tok_eq st.tok Eof)) then
    Ctx.reject ctx r_trailing;
  exec ctx program

let parse ctx = Ctx.frame ctx s_parse parse_body ctx

end

let tokens =
  [
    Token.literal "<";
    Token.literal "+";
    Token.literal "-";
    Token.literal ";";
    Token.literal "=";
    Token.literal "{";
    Token.literal "}";
    Token.literal "(";
    Token.literal ")";
    Token.make "identifier" 1;
    Token.make "number" 1;
    Token.literal "if";
    Token.literal "do";
    Token.literal "else";
    Token.literal "while";
  ]

let tokenize input =
  let tags = ref [] in
  let push tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  let n = String.length input in
  let rec scan i =
    if i < n then
      match input.[i] with
      | '<' | '+' | '-' | ';' | '=' | '{' | '}' | '(' | ')' ->
        push (String.make 1 input.[i]);
        scan (i + 1)
      | '0' .. '9' ->
        push "number";
        scan (i + 1)
      | 'a' .. 'z' ->
        let rec word j = if j < n && input.[j] >= 'a' && input.[j] <= 'z' then word (j + 1) else j in
        let j = word i in
        (match String.sub input i (j - i) with
         | "if" | "else" | "while" | "do" -> push (String.sub input i (j - i))
         | _ -> push "identifier");
        scan j
      | _ -> scan (i + 1)
  in
  scan 0;
  List.rev !tags

module Plain = Make (struct
  let name = "tinyc"
  let token_taints = false
  let semantic_checks = false
end)

module Token_taints = Make (struct
  let name = "tinyc-tt"
  let token_taints = true
  let semantic_checks = false
end)

module Semantic = Make (struct
  let name = "tinyc-sem"
  let token_taints = false
  let semantic_checks = true
end)

let subject =
  {
    Subject.name = "tinyc";
    description = "Tiny-C: a C subset with execution (paper subject: tinyC)";
    registry = Plain.registry;
    parse = Plain.parse;
    machine = None;
    fuel = 1_500;
    tokens;
    tokenize;
    original_loc = 191;
  }

let subject_semantic =
  {
    Subject.name = "tinyc-sem";
    description = "Tiny-C with §7.3 semantic checks (use before assignment)";
    registry = Semantic.registry;
    parse = Semantic.parse;
    machine = None;
    fuel = 1_500;
    tokens;
    tokenize;
    original_loc = 191;
  }

let subject_token_taints =
  {
    Subject.name = "tinyc-tt";
    description = "Tiny-C with §7.2 token-taint recovery";
    registry = Token_taints.registry;
    parse = Token_taints.parse;
    machine = None;
    fuel = 1_500;
    tokens;
    tokenize;
    original_loc = 191;
  }
