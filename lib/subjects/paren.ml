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

(* One entry per bracket kind, in [pairs] order: the opening slot is
   probed in that order, so the comparison log is the observation
   record and the probe order is part of the subject. *)
type pair = { open_ : char; sl_open : Ctx.slot; close : Helpers.expectation }

let table =
  Array.of_list
    (List.map
       (fun (o, c) ->
         {
           open_ = o;
           sl_open = Helpers.slot_eq (List.assoc o b_open) o;
           close = Helpers.expectation (List.assoc c b_close) c;
         })
       pairs)

(* Rejections, built once. *)
let r_empty = Ctx.rejection "empty input"
let r_unbalanced = Ctx.rejection "unbalanced input"

(* Frames are bare enter/exit pairs, so a rejection logs no exit for
   the frames it unwinds; the golden digests pin that frame log
   (DESIGN §11). *)

(* A (possibly empty) balanced sequence, up to the first character that
   cannot open a bracket. After a closed group the sequence continues
   one level deeper, inside the current frame. *)
let rec seq ctx =
  Ctx.enter_frame ctx s_seq;
  (match Ctx.peek ctx with None -> () | Some c -> try_opens ctx c 0);
  Ctx.exit_frame ctx

and try_opens ctx c i =
  if i < Array.length table then begin
    let p = table.(i) in
    if Ctx.eq_slot ctx p.sl_open c p.open_ then begin
      ignore (Ctx.next ctx);
      seq ctx;
      Helpers.expect ctx p.close;
      seq ctx
    end
    else try_opens ctx c (i + 1)
  end

(* Probe with a peek, not [at_eof]: rejecting the empty input must
   register an EOF access so the fuzzer (and the EOF-hunger oracle
   check) can tell this rejection wants *more* input rather than
   different input. *)
let parse_body ctx =
  if Ctx.branch ctx b_empty (Option.is_none (Ctx.peek ctx)) then
    Ctx.reject ctx r_empty;
  seq ctx;
  match Ctx.peek ctx with
  | Some _ ->
    ignore (Ctx.branch ctx b_trailing true);
    Ctx.reject ctx r_unbalanced
  | None -> ignore (Ctx.branch ctx b_trailing false)

let parse ctx =
  Ctx.enter_frame ctx s_parse;
  parse_body ctx;
  Ctx.exit_frame ctx

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
    machine = None;
    fuel = 100_000;
    tokens;
    tokenize;
    original_loc = 40;
  }
