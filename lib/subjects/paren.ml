module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site

let registry = Site.create_registry "paren"
let s_parse = Site.block registry "parse"
let s_seq = Site.block registry "seq"

let pairs = [ ('(', ')'); ('[', ']'); ('{', '}'); ('<', '>') ]

let b_open =
  List.map (fun (o, _) -> (o, Site.branch registry (Printf.sprintf "open-%c?" o))) pairs

let b_close =
  List.map (fun (_, c) -> (c, Site.branch registry (Printf.sprintf "close-%c" c))) pairs

let b_empty = Site.branch registry "parse.empty?"
let b_trailing = Site.branch registry "parse.trailing?"

module Machine = Pdf_instr.Machine
module K = Helpers.K

(* The per-pair site lookups and reject messages are resolved into a
   flat array at construction, and the dispatch chain walks it by index.
   The chain is an in-order [Ctx.eq_slot] sequence over [pairs]: the
   comparison log is the observation record, so the probe order is part
   of the subject. *)
let machine : Machine.recognizer =
  let table =
    Array.of_list
      (List.map
         (fun (o, close) ->
           let msg_eof, msg = K.reject_msgs close in
           ( Helpers.slot_eq (List.assoc o b_open) o,
             o,
             List.assoc close b_close,
             close,
             msg_eof,
             msg ))
         pairs)
  in
  let len = Array.length table in
  (* [seq] re-enters per invocation (the nesting is genuinely recursive),
     but each entry builds its frame and peek node once instead of per
     character. [seq] consumes a (possibly empty) balanced sequence and
     stops at the first character that cannot open a bracket. *)
  let rec seq (k : K.k) : K.k =
    K.with_frame s_seq
      (fun k ->
        K.peek (fun c ->
            match c with None -> k | Some c -> try_opens 0 c k))
      k
  and try_opens i c (k : K.k) : K.k =
   fun ctx ->
    if i >= len then k ctx
    else
      let slo, o, bc, close, msg_eof, msg = Array.unsafe_get table i in
      if Ctx.eq_slot ctx slo c o then
        K.skip (seq (K.expect_with ~msg_eof ~msg bc close (seq k))) ctx
      else try_opens (i + 1) c k ctx
  in
  K.with_frame s_parse
    (fun k ->
      let tail =
        K.peek (fun c ->
            fun ctx ->
              match c with
              | Some _ ->
                ignore (Ctx.branch ctx b_trailing true);
                Ctx.reject ctx "unbalanced input"
              | None ->
                ignore (Ctx.branch ctx b_trailing false);
                k ctx)
      in
      let body = seq tail in
      (* Probe with a peek, not [at_eof]: rejecting the empty input must
         register an EOF access so the fuzzer (and the EOF-hunger oracle
         check) can tell this rejection wants *more* input rather than
         different input. *)
      K.peek (fun c ->
          fun ctx ->
            if Ctx.branch ctx b_empty (c = None) then
              Ctx.reject ctx "empty input"
            else body ctx))
    K.stop

let parse ctx = Machine.run ctx machine

let tokens =
  List.concat_map
    (fun (o, c) -> [ Token.literal (String.make 1 o); Token.literal (String.make 1 c) ])
    pairs

let tokenize input =
  let tags = ref [] in
  let push tag = if not (List.mem tag !tags) then tags := tag :: !tags in
  String.iter
    (fun c ->
      match c with
      | '(' | ')' | '[' | ']' | '{' | '}' | '<' | '>' -> push (String.make 1 c)
      | _ -> ())
    input;
  List.rev !tags

let subject =
  {
    Subject.name = "paren";
    description = "well-balanced brackets (Dyck language, Section 3 ablation)";
    registry;
    parse;
    machine = Some machine;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 40;
  }
