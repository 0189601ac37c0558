module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Comparison = Pdf_instr.Comparison
module Charset = Pdf_util.Charset

(* The kinds of the comparison logs: [one_of]'s is the set of the
   string's characters, labelled with the string. *)
let slot_eq site expected = Ctx.slot site (Comparison.Char_eq expected)
let slot_range site lo hi = Ctx.slot site (Comparison.Char_range (lo, hi))
let slot_set site ~label set = Ctx.slot site (Comparison.Char_set (set, label))

let slot_one_of site chars =
  Ctx.slot site (Comparison.Char_set (Charset.of_string chars, "one-of " ^ chars))

let rec skip_set ctx sl set =
  match Ctx.peek ctx with
  | None -> ()
  | Some c ->
    if Ctx.in_set_slot ctx sl c set then begin
      ignore (Ctx.next ctx);
      skip_set ctx sl set
    end

let rec skip_range ctx sl lo hi =
  match Ctx.peek ctx with
  | None -> ()
  | Some c ->
    if Ctx.in_range_slot ctx sl c lo hi then begin
      ignore (Ctx.next ctx);
      skip_range ctx sl lo hi
    end

(* Skip, and return where the skipped span started: the token is the
   input from there to the cursor, and reading it allocates nothing. *)
let read_set ctx sl set =
  let from = Ctx.pos ctx in
  skip_set ctx sl set;
  from

type expectation = {
  sl : Ctx.slot;
  c : char;
  at_eof : Ctx.rejection;
  mismatch : Ctx.rejection;
}

let expectation site c =
  {
    sl = slot_eq site c;
    c;
    at_eof = Ctx.rejection (Printf.sprintf "expected %C, found end of input" c);
    mismatch = Ctx.rejection (Printf.sprintf "expected %C" c);
  }

let expect ctx x =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx x.at_eof
  | Some t -> if not (Ctx.eq_slot ctx x.sl t x.c) then Ctx.reject ctx x.mismatch

let peek_is ctx sl c =
  match Ctx.peek ctx with
  | None -> false
  | Some t -> Ctx.eq_slot ctx sl t c

let eat_if ctx sl c =
  if peek_is ctx sl c then begin
    ignore (Ctx.next ctx);
    true
  end
  else false
