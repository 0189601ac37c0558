module Tchar = Pdf_taint.Tchar
module Tstring = Pdf_taint.Tstring
module Taint = Pdf_taint.Taint
module Charset = Pdf_util.Charset
module Vec = Pdf_util.Vec

exception Reject of string
exception Out_of_fuel

(* All per-run observations land in growable buffers rather than
   reversed lists: recording an outcome or a comparison event is an
   amortised O(1) array store with no per-element cons. Comparison
   events go into columns ({!Comparison.columns}), so an event is four
   unboxed stores and one of a shared kind, and allocates nothing. *)
type t = {
  registry : Site.registry;
  mutable text : string;
  mutable cursor : int;
  mutable eof_access : bool;
  (* Replaced whole when it grows, so a reader holding the old columns
     can tell by physical equality. *)
  mutable comparisons : Comparison.columns;
  mutable n_comparisons : int;
  covered : Bytes.t; (* dense outcome presence, indexed by outcome id *)
  touched : int Vec.t; (* outcomes covered, first-occurrence order *)
  trace : int Vec.t;
  mutable stack : int;
  mutable max_stack : int;
  mutable fuel : int;
  track_comparisons : bool;
  track_trace : bool;
  track_frames : bool;
  frames : Frame.event Vec.t;
  budget : int; (* the fuel a run starts with, restored by a reset *)
}

let make ~registry ?(fuel = 100_000) ?(track_comparisons = true)
    ?(track_trace = false) ?(track_frames = false) text =
  {
    registry;
    text;
    cursor = 0;
    eof_access = false;
    comparisons = Comparison.columns 0;
    n_comparisons = 0;
    covered = Bytes.make (2 * Site.site_count registry) '\000';
    touched = Vec.create 0;
    (* Only AFL's bitmap and the trace-agreement check ask for the
       trace; an untraced run should not pay for its buffer. *)
    trace = Vec.create ~capacity:(if track_trace then 64 else 0) 0;
    stack = 0;
    max_stack = 0;
    fuel;
    budget = fuel;
    track_comparisons;
    track_trace;
    track_frames;
    frames = Vec.create (Frame.Exit { pos = 0 });
  }

(* Undo one run's recording for the next input. The presence map is
   cleared through [touched], which lists exactly the bytes the run set,
   so a reset costs the run's distinct outcomes, not the registry's
   size; the buffers keep their capacity, so a context reused across a
   campaign stops allocating them once they have grown to its longest
   run. The comparison columns and the int buffers are only cut back to
   length zero: what their slots still hold is ints, booleans and
   kinds, never read past the count and overwritten by the next run.
   Only the frame log, whose events are blocks, is refilled. *)
let reset t text =
  let touched = Vec.backing t.touched in
  for i = 0 to Vec.length t.touched - 1 do
    Bytes.unsafe_set t.covered (Array.unsafe_get touched i) '\000'
  done;
  Vec.clear_ints t.touched;
  Vec.clear_ints t.trace;
  t.n_comparisons <- 0;
  Vec.clear t.frames;
  t.text <- text;
  t.cursor <- 0;
  t.eof_access <- false;
  t.stack <- 0;
  t.max_stack <- 0;
  t.fuel <- t.budget

let[@inline] pos t = t.cursor
let input t = t.text
let[@inline] at_eof t = t.cursor >= String.length t.text
let[@inline] depth t = t.stack

(* A read returns the interned character of its position and byte
   ({!Tchar.interned}), so parsers that probe a position repeatedly
   while trying alternatives, and every run of a campaign, share one
   value per (position, byte) and allocate nothing. *)
let peek t =
  if at_eof t then begin
    t.eof_access <- true;
    None
  end
  else
    (* [at_eof] above established [cursor < length text]. *)
    Tchar.interned t.cursor (String.unsafe_get t.text t.cursor)

let next t =
  match peek t with
  | None -> None
  | Some _ as c ->
    t.cursor <- t.cursor + 1;
    c

(* Outcome ids come from this run's registry, so [oid] is within
   [covered] by construction (it was sized from the same registry) and
   the accesses can skip their bound checks. *)
let[@inline] record_outcome t oid =
  if Bytes.unsafe_get t.covered oid = '\000' then begin
    Bytes.unsafe_set t.covered oid '\001';
    Vec.push t.touched oid
  end;
  if t.track_trace then Vec.push t.trace oid

let[@inline] cover t site = record_outcome t (Site.outcome site true)

let[@inline] branch t site cond =
  record_outcome t (Site.outcome site cond);
  cond

let enter_frame t site =
  cover t site;
  t.stack <- t.stack + 1;
  if t.stack > t.max_stack then t.max_stack <- t.stack;
  if t.track_frames then
    Vec.push t.frames (Frame.Enter { site; pos = t.cursor })

let exit_frame t =
  t.stack <- t.stack - 1;
  if t.track_frames then Vec.push t.frames (Frame.Exit { pos = t.cursor })

(* Hand-rolled protect: [Fun.protect] allocates a closure for [finally]
   on every call, and nonterminal entry is one of the hottest sites in a
   recursive-descent parse. The body takes its argument from the caller
   rather than capturing it, so a parser whose bodies are named
   functions builds no closure per frame either. *)
let frame t site body arg =
  enter_frame t site;
  match body arg with
  | v ->
    exit_frame t;
    v
  | exception e ->
    exit_frame t;
    raise e

let[@inline] tick t =
  if t.fuel <= 0 then raise Out_of_fuel;
  t.fuel <- t.fuel - 1

(* [n] is below the columns' length after the grow check, so the stores
   need no bound checks of their own. *)
let emit t ~index ~kind ~result =
  if t.track_comparisons then begin
    let n = t.n_comparisons in
    if n = Array.length t.comparisons.indices then
      t.comparisons <- Comparison.grow t.comparisons n;
    let c = t.comparisons in
    Array.unsafe_set c.indices n index;
    Array.unsafe_set c.trace_positions n (Vec.length t.touched);
    Array.unsafe_set c.depths n t.stack;
    Array.unsafe_set c.results n result;
    Array.unsafe_set c.kinds n kind;
    t.n_comparisons <- n + 1
  end

(* A comparison against a tainted character: record the branch outcome
   always; log the comparison event only when the operand actually derives
   from the input (constants have nothing to substitute). The boolean is
   computed first and the event payload built only when it will actually
   be logged — constructing a [kind] block for an untracked run (or, for
   [one_of], a charset and a label per call) is wasted allocation on the
   hottest path. *)
let[@inline] emit_tainted t (c : Tchar.t) kind result =
  let index = Taint.max_index_raw c.taint in
  if index >= 0 then emit t ~index ~kind ~result

(* The [Char_eq] kind of every byte, so an equality event shares its
   kind block instead of allocating one per call. The table is built on
   first use, so a process that never parses does not hold it. Domains
   that race here each build an equal table and either one is kept; the
   [Atomic.set] publishes it whole. *)
let char_eq_kinds = Atomic.make [||]

let build_char_eq_kinds () =
  let kinds = Array.init 256 (fun i -> Comparison.Char_eq (Char.chr i)) in
  Atomic.set char_eq_kinds kinds;
  kinds

let[@inline] char_eq c =
  let kinds = Atomic.get char_eq_kinds in
  let kinds = if Array.length kinds = 0 then build_char_eq_kinds () else kinds in
  Array.unsafe_get kinds (Char.code c)

let eq t site c expected =
  let result = c.Tchar.ch = expected in
  if t.track_comparisons then emit_tainted t c (char_eq expected) result;
  branch t site result

let in_range t site c lo hi =
  let result = c.Tchar.ch >= lo && c.Tchar.ch <= hi in
  if t.track_comparisons then
    emit_tainted t c (Comparison.Char_range (lo, hi)) result;
  branch t site result

let in_set t site ~label c set =
  let result = Charset.mem c.Tchar.ch set in
  if t.track_comparisons then
    emit_tainted t c (Comparison.Char_set (set, label)) result;
  branch t site result

let one_of t site c chars =
  let result = String.contains chars c.Tchar.ch in
  if t.track_comparisons then
    emit_tainted t c
      (Comparison.Char_set (Charset.of_string chars, "one-of " ^ chars))
      result;
  branch t site result

(* Pre-resolved comparison slots: a subject resolves the two outcome
   ids and the event-kind block once, where it defines the site, so the
   per-character path is a compare, a possible event push and a
   coverage store — no [Site.outcome] dispatch and no kind allocation
   per call. The
   observation sequence is identical to the [eq]/[in_range]/[in_set]/
   [one_of] forms above: event first, then outcome. *)
type slot = { sl_true : int; sl_false : int; sl_kind : Comparison.kind }

let slot site kind =
  {
    sl_true = Site.outcome site true;
    sl_false = Site.outcome site false;
    sl_kind = kind;
  }

let[@inline] slot_result t sl (c : Tchar.t) result =
  if t.track_comparisons then emit_tainted t c sl.sl_kind result;
  record_outcome t (if result then sl.sl_true else sl.sl_false);
  result

let[@inline] eq_slot t sl (c : Tchar.t) expected =
  slot_result t sl c (Char.equal c.Tchar.ch expected)

let[@inline] in_range_slot t sl (c : Tchar.t) lo hi =
  slot_result t sl c (c.Tchar.ch >= lo && c.Tchar.ch <= hi)

let[@inline] in_set_slot t sl (c : Tchar.t) set =
  slot_result t sl c (Charset.mem c.Tchar.ch set)

let[@inline] one_of_slot t sl (c : Tchar.t) chars =
  slot_result t sl c (String.contains chars c.Tchar.ch)

(* Instrumented strcmp. The token and the keyword are compared in
   lockstep up to their first difference; a tracked run then logs one
   character event per matched position, in order, and the mismatch
   events. On a mismatch after partial progress, the keyword-suffix
   event's replacement completes the keyword in one substitution. The
   events are built from taint indices read in place ([max_index_raw])
   and the shared [Char_eq] kinds, so the only blocks allocated are the
   keyword-suffix kinds. *)
let emit_suffix t ~index keyword ~offset =
  emit t ~index ~kind:(Comparison.Str_eq { expected = keyword; offset }) ~result:false

let str_eq t site (tok : Tstring.t) keyword =
  let tok_len = Tstring.length tok and kw_len = String.length keyword in
  let n = if tok_len < kw_len then tok_len else kw_len in
  let i = ref 0 in
  while !i < n && (Tstring.get tok !i).Tchar.ch = String.unsafe_get keyword !i do
    incr i
  done;
  let i = !i in
  let matched = i = tok_len && i = kw_len in
  if t.track_comparisons then begin
    for j = 0 to i - 1 do
      let index = Taint.max_index_raw (Tstring.get tok j).Tchar.taint in
      if index >= 0 then emit t ~index ~kind:(char_eq keyword.[j]) ~result:true
    done;
    if matched then ()
    else if i = tok_len then begin
      (* The token is a proper prefix of the keyword: the mismatch is at
         the position just past the token, where an extension of it
         would have to appear. *)
      let last = ref (-1) in
      for j = 0 to tok_len - 1 do
        let index = Taint.max_index_raw (Tstring.get tok j).Tchar.taint in
        if index > !last then last := index
      done;
      if !last >= 0 then begin
        let index = !last + 1 in
        emit t ~index ~kind:(char_eq keyword.[i]) ~result:false;
        if i > 0 then emit_suffix t ~index keyword ~offset:i
      end
    end
    else begin
      let index = Taint.max_index_raw (Tstring.get tok i).Tchar.taint in
      if index >= 0 then
        if i = kw_len then
          (* The token is longer than the keyword: no substitution can
             help at this position, but the failed comparison is
             recorded for coverage. *)
          emit_suffix t ~index keyword ~offset:kw_len
        else begin
          emit t ~index ~kind:(char_eq keyword.[i]) ~result:false;
          if i > 0 then emit_suffix t ~index keyword ~offset:i
        end
    end
  end;
  branch t site matched

(* §7.2 token-taint recovery: a parser that demands a specific token can
   report the expectation at the token's input position even though the
   token value itself carries no direct data flow. On mismatch the event's
   replacement is the expected spelling, to be spliced at [at]. *)
let expect_token t site ~at ~spelling ~matched =
  if not matched then
    emit t ~index:at
      ~kind:(Comparison.Str_eq { expected = spelling; offset = 0 })
      ~result:false;
  branch t site matched

let reject _t reason = raise (Reject reason)

let[@inline] comparison_count t = t.n_comparisons
let[@inline] comparison_columns t = t.comparisons
let[@inline] touched_count t = Vec.length t.touched
let[@inline] touched_buffer t = Vec.backing t.touched

let comparisons t = List.init t.n_comparisons (Comparison.get t.comparisons)
let comparisons_array t = Array.init t.n_comparisons (Comparison.get t.comparisons)
let trace t = Vec.to_array t.trace
let touched t = Vec.to_array t.touched
let eof_access t = t.eof_access
let max_depth t = t.max_stack
let frames t = Vec.to_array t.frames
