module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Charset = Pdf_util.Charset
module Tstring = Pdf_taint.Tstring

(* The subject is functorised so the paper-faithful parser and the Â§7.2
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

(* One branch per symbol, as in the original lexer's if/else-if chain. *)
let b_symbols =
  List.map
    (fun c -> (c, Site.branch registry (Printf.sprintf "lex.sym-%c?" c)))
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

type token =
  | Sym of char
  | Kw_if
  | Kw_else
  | Kw_while
  | Kw_do
  | Id of int  (** variable index 0..25 *)
  | Num of int
  | Eof

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

type parser_state = { ctx : Ctx.t; mutable tok : token; mutable tok_start : int }

let ws = Charset.of_string " \t\r\n"
let lower = Charset.range 'a' 'z'

(* Returns the token and the input position where it starts. *)
let next_token ctx =
  Ctx.with_frame ctx s_lex @@ fun () ->
  Helpers.skip_set ctx b_ws ~label:"whitespace" ws;
  let start = Ctx.pos ctx in
  let token =
    match Ctx.peek ctx with
  | None -> Eof
  | Some c ->
    if Ctx.in_range ctx b_letter c 'a' 'z' then begin
      let word = Helpers.read_set ctx b_letter ~label:"letter" lower in
      if Ctx.str_eq ctx b_kw_if word "if" then Kw_if
      else if Ctx.str_eq ctx b_kw_else word "else" then Kw_else
      else if Ctx.str_eq ctx b_kw_while word "while" then Kw_while
      else if Ctx.str_eq ctx b_kw_do word "do" then Kw_do
      else if Ctx.branch ctx b_word_is_id (Tstring.length word = 1) then
        Id (Char.code (Tstring.get word 0).Pdf_taint.Tchar.ch - Char.code 'a')
      else Ctx.reject ctx "unknown keyword"
    end
    else if Ctx.in_range ctx b_digit c '0' '9' then begin
      let num = Helpers.read_set ctx b_digit ~label:"digit" Charset.digits in
      (* Accumulate with silent wrap-around, as C's int arithmetic does;
         [int_of_string] would fail on fuzzer-generated digit floods. *)
      let value =
        Tstring.chars num
        |> List.fold_left
             (fun acc (c : Pdf_taint.Tchar.t) ->
               (acc * 10) + (Char.code c.ch - Char.code '0'))
             0
      in
      Num value
    end
    else begin
      let rec try_symbols = function
        | [] -> Ctx.reject ctx "unexpected character"
        | (sym, site) :: rest ->
          if Ctx.eq ctx site c sym then begin
            ignore (Ctx.next ctx);
            Sym sym
          end
          else try_symbols rest
      in
      try_symbols b_symbols
    end
  in
  (token, start)

let advance st =
  let token, start = next_token st.ctx in
  st.tok <- token;
  st.tok_start <- start

(* Token-kind expectation. The lexer's dispatch comparisons already
   happened; the structural check here has no data flow from the input
   (Â§7.2), unless the token-taint extension re-attaches it. *)
let expect_sym st c site =
  let matched = st.tok = Sym c in
  let matched =
    if Config.token_taints then
      Ctx.expect_token st.ctx site ~at:st.tok_start ~spelling:(String.make 1 c)
        ~matched
    else Ctx.branch st.ctx site matched
  in
  if matched then advance st
  else Ctx.reject st.ctx (Printf.sprintf "expected %C" c)

let rec expr st =
  Ctx.with_frame st.ctx s_expr @@ fun () ->
  let left = test st in
  if Ctx.branch st.ctx b_assign (st.tok = Sym '=') then begin
    match left with
    | E_id v ->
      ignore (Ctx.branch st.ctx b_lvalue true);
      advance st;
      E_assign (v, expr st)
    | E_assign _ | E_less _ | E_add _ | E_sub _ | E_num _ ->
      ignore (Ctx.branch st.ctx b_lvalue false);
      Ctx.reject st.ctx "assignment to non-variable"
  end
  else left

and test st =
  Ctx.with_frame st.ctx s_test @@ fun () ->
  let left = sum st in
  if Ctx.branch st.ctx b_less (st.tok = Sym '<') then begin
    advance st;
    E_less (left, sum st)
  end
  else left

and sum st =
  Ctx.with_frame st.ctx s_sum @@ fun () ->
  let rec more acc =
    if Ctx.branch st.ctx b_add (st.tok = Sym '+') then begin
      advance st;
      more (E_add (acc, term st))
    end
    else if Ctx.branch st.ctx b_sub (st.tok = Sym '-') then begin
      advance st;
      more (E_sub (acc, term st))
    end
    else acc
  in
  more (term st)

and term st =
  Ctx.with_frame st.ctx s_term @@ fun () ->
  match st.tok with
  | Id v ->
    ignore (Ctx.branch st.ctx b_term_id true);
    advance st;
    E_id v
  | Num n ->
    ignore (Ctx.branch st.ctx b_term_num true);
    advance st;
    E_num n
  | Sym '(' ->
    ignore (Ctx.branch st.ctx b_term_paren true);
    paren_expr st
  | Sym _ | Kw_if | Kw_else | Kw_while | Kw_do | Eof ->
    ignore (Ctx.branch st.ctx b_term_paren false);
    Ctx.reject st.ctx "expected term"

and paren_expr st =
  Ctx.with_frame st.ctx s_paren_expr @@ fun () ->
  expect_sym st '(' b_lparen;
  let e = expr st in
  expect_sym st ')' b_rparen;
  e

let rec statement st =
  Ctx.with_frame st.ctx s_statement @@ fun () ->
  Ctx.tick st.ctx;
  if Ctx.branch st.ctx b_stmt_if (st.tok = Kw_if) then begin
    advance st;
    let cond = paren_expr st in
    let then_branch = statement st in
    if Ctx.branch st.ctx b_stmt_else (st.tok = Kw_else) then begin
      advance st;
      S_if (cond, then_branch, Some (statement st))
    end
    else S_if (cond, then_branch, None)
  end
  else if Ctx.branch st.ctx b_stmt_while (st.tok = Kw_while) then begin
    advance st;
    let cond = paren_expr st in
    S_while (cond, statement st)
  end
  else if Ctx.branch st.ctx b_stmt_do (st.tok = Kw_do) then begin
    advance st;
    let body = statement st in
    let matched = st.tok = Kw_while in
    let matched =
      if Config.token_taints then
        Ctx.expect_token st.ctx b_do_while ~at:st.tok_start ~spelling:"while"
          ~matched
      else Ctx.branch st.ctx b_do_while matched
    in
    if matched then begin
      advance st;
      let cond = paren_expr st in
      expect_sym st ';' b_semicolon;
      S_do (body, cond)
    end
    else Ctx.reject st.ctx "expected 'while' after do-body"
  end
  else if Ctx.branch st.ctx b_stmt_block (st.tok = Sym '{') then begin
    advance st;
    let rec stmts acc =
      if Ctx.branch st.ctx b_block_more (st.tok <> Sym '}' && st.tok <> Eof) then
        stmts (statement st :: acc)
      else begin
        expect_sym st '}' b_stmt_block;
        S_block (List.rev acc)
      end
    in
    stmts []
  end
  else if Ctx.branch st.ctx b_stmt_empty (st.tok = Sym ';') then begin
    advance st;
    S_empty
  end
  else begin
    let e = expr st in
    expect_sym st ';' b_semicolon;
    S_expr e
  end

(* Execution, as in the paper's evaluation setup (tinyC programs are run
   after parsing). The fuel budget turns infinite loops into hangs. *)
let exec ctx program =
  Ctx.with_frame ctx s_exec @@ fun () ->
  let vars = Array.make 26 0 in
  let assigned = Array.make 26 false in
  let rec eval = function
    | E_assign (v, e) ->
      Ctx.cover ctx s_exec_assign;
      let value = eval e in
      vars.(v) <- value;
      assigned.(v) <- true;
      value
    | E_less (a, b) ->
      if Ctx.branch ctx b_exec_less (eval a < eval b) then 1 else 0
    | E_add (a, b) -> eval a + eval b
    | E_sub (a, b) -> eval a - eval b
    | E_id v ->
      if Config.semantic_checks then begin
        if not (Ctx.branch ctx b_sem_defined assigned.(v)) then
          Ctx.reject ctx
            (Printf.sprintf "use of variable '%c' before assignment"
               (Char.chr (Char.code 'a' + v)))
      end;
      vars.(v)
    | E_num n -> n
  in
  let rec run = function
    | S_if (cond, then_branch, else_branch) ->
      Ctx.cover ctx s_exec_if;
      if Ctx.branch ctx b_exec_cond (eval cond <> 0) then run then_branch
      else (match else_branch with Some s -> run s | None -> ())
    | S_while (cond, body) ->
      Ctx.cover ctx s_exec_while;
      while Ctx.branch ctx b_exec_cond (eval cond <> 0) do
        Ctx.tick ctx;
        run body
      done
    | S_do (body, cond) ->
      Ctx.cover ctx s_exec_do;
      let continue = ref true in
      while !continue do
        Ctx.tick ctx;
        run body;
        continue := Ctx.branch ctx b_exec_cond (eval cond <> 0)
      done
    | S_block stmts -> List.iter run stmts
    | S_expr e -> ignore (eval e)
    | S_empty -> ()
  in
  run program

let parse ctx =
  Ctx.with_frame ctx s_parse @@ fun () ->
  let tok, tok_start = next_token ctx in
  let st = { ctx; tok; tok_start } in
  if st.tok = Eof then Ctx.reject ctx "empty program";
  let program = statement st in
  if Ctx.branch ctx b_trailing (st.tok <> Eof) then
    Ctx.reject ctx "trailing input after statement";
  exec ctx program

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
    description = "Tiny-C with Â§7.3 semantic checks (use before assignment)";
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
    description = "Tiny-C with Â§7.2 token-taint recovery";
    registry = Token_taints.registry;
    parse = Token_taints.parse;
    machine = None;
    fuel = 1_500;
    tokens;
    tokenize;
    original_loc = 191;
  }
