module Tchar = Pdf_taint.Tchar
module Tstring = Pdf_taint.Tstring
module Taint = Pdf_taint.Taint
module Charset = Pdf_util.Charset
module Vec = Pdf_util.Vec

exception Reject of string
exception Out_of_fuel

(* All per-run observations land in growable buffers (Vec) rather than
   reversed lists: recording an outcome or a comparison event is an
   amortised O(1) array store with no per-element cons, and the final
   packaging into arrays is a single blit instead of a list reversal. *)
type t = {
  registry : Site.registry;
  text : string;
  mutable cursor : int;
  mutable eof_access : bool;
  comparisons : Comparison.t Vec.t;
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
  (* Memoised [peek] result: parsers probe the same position repeatedly
     when trying alternatives, and each probe would otherwise allocate a
     fresh tainted character. *)
  mutable peeked : Tchar.t option;
  mutable peeked_at : int;
}

let dummy_comparison =
  {
    Comparison.trace_pos = 0;
    index = 0;
    kind = Comparison.Char_eq '\000';
    result = false;
    stack_depth = 0;
  }

let dummy_frame = Frame.Exit { pos = 0 }

let make ~registry ?(fuel = 100_000) ?(track_comparisons = true)
    ?(track_trace = false) ?(track_frames = false) text =
  {
    registry;
    text;
    cursor = 0;
    eof_access = false;
    comparisons = Vec.create dummy_comparison;
    covered = Bytes.make (2 * Site.site_count registry) '\000';
    touched = Vec.create 0;
    trace = Vec.create ~capacity:64 0;
    stack = 0;
    max_stack = 0;
    fuel;
    track_comparisons;
    track_trace;
    track_frames;
    frames = Vec.create dummy_frame;
    peeked = None;
    peeked_at = -1;
  }

(* {2 Snapshot marks}

   A mark is the O(1) part of a suspension point: watermarks into the
   append-only recording buffers plus the scalar run state. Taken
   together with the (immutable) buffer prefixes below the watermarks it
   determines the full observation state of the run at that instant —
   the buffers only ever grow, so the prefixes survive unmodified until
   the end of the run and can be shared, not copied, when a snapshot is
   materialised. *)
type mark = {
  m_comparisons : int;
  m_touched : int;
  m_trace : int;
  m_frames : int;
  m_stack : int;
  m_max_stack : int;
  m_fuel : int;
  m_eof_access : bool;
}

let mark t =
  {
    m_comparisons = Vec.length t.comparisons;
    m_touched = Vec.length t.touched;
    m_trace = Vec.length t.trace;
    m_frames = Vec.length t.frames;
    m_stack = t.stack;
    m_max_stack = t.max_stack;
    m_fuel = t.fuel;
    m_eof_access = t.eof_access;
  }

(* Rebuild a context mid-parse from a snapshot: the recording buffers
   are borrowed prefixes of the parent run's packaged arrays
   (copy-on-write via {!Vec.of_prefix}), and the dense coverage
   presence map is reconstructed from the touched prefix — O(distinct
   outcomes covered in the prefix), bounded by the registry size. *)
let restore ~registry ~(mark : mark) ~cursor ~comparisons ~touched ~trace
    ~frames ?(track_comparisons = true) ?(track_trace = false)
    ?(track_frames = false) text =
  let covered = Bytes.make (2 * Site.site_count registry) '\000' in
  for i = 0 to mark.m_touched - 1 do
    Bytes.unsafe_set covered (Array.unsafe_get touched i) '\001'
  done;
  {
    registry;
    text;
    cursor;
    eof_access = mark.m_eof_access;
    comparisons = Vec.of_prefix comparisons ~len:mark.m_comparisons dummy_comparison;
    covered;
    touched = Vec.of_prefix touched ~len:mark.m_touched 0;
    trace = Vec.of_prefix trace ~len:mark.m_trace 0;
    stack = mark.m_stack;
    max_stack = mark.m_max_stack;
    fuel = mark.m_fuel;
    track_comparisons;
    track_trace;
    track_frames;
    frames = Vec.of_prefix frames ~len:mark.m_frames dummy_frame;
    peeked = None;
    peeked_at = -1;
  }

let[@inline] pos t = t.cursor
let input t = t.text
let[@inline] at_eof t = t.cursor >= String.length t.text
let[@inline] depth t = t.stack

let peek t =
  if at_eof t then begin
    t.eof_access <- true;
    None
  end
  else if t.peeked_at = t.cursor then t.peeked
  else begin
    (* [at_eof] above established [cursor < length text]. *)
    let c = Some (Tchar.input t.cursor (String.unsafe_get t.text t.cursor)) in
    t.peeked <- c;
    t.peeked_at <- t.cursor;
    c
  end

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
   recursive-descent parse. *)
let with_frame t site f =
  enter_frame t site;
  match f () with
  | v ->
    exit_frame t;
    v
  | exception e ->
    exit_frame t;
    raise e

let[@inline] tick t =
  if t.fuel <= 0 then raise Out_of_fuel;
  t.fuel <- t.fuel - 1

let emit t ~index ~kind ~result =
  if t.track_comparisons then
    Vec.push t.comparisons
      {
        Comparison.trace_pos = Vec.length t.touched;
        index;
        kind;
        result;
        stack_depth = t.stack;
      }

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

let eq t site c expected =
  let result = c.Tchar.ch = expected in
  if t.track_comparisons then
    emit_tainted t c (Comparison.Char_eq expected) result;
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

(* Pre-resolved comparison slots: the staged subject combinators
   resolve the two outcome ids and the event-kind block once, so the per-character path
   is a compare, a possible event push and a coverage store — no
   [Site.outcome] dispatch and no kind allocation per call. The
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

(* Instrumented strcmp. Walk the token and the keyword in lockstep,
   emitting a per-position character event; on a mismatch after partial
   progress, additionally emit the keyword-suffix event whose replacement
   completes the keyword in one substitution. *)
let rec str_eq t site (tok : Tstring.t) keyword =
  if not t.track_comparisons then begin
    (* Untracked fast path: plain lockstep compare, no taint fold and no
       event payloads. *)
    let tok_len = Tstring.length tok and kw_len = String.length keyword in
    let rec same i =
      if i >= tok_len then i >= kw_len
      else if i >= kw_len then false
      else (Tstring.get tok i).Tchar.ch = keyword.[i] && same (i + 1)
    in
    branch t site (same 0)
  end
  else str_eq_tracked t site tok keyword

and str_eq_tracked t site (tok : Tstring.t) keyword =
  let tok_len = Tstring.length tok and kw_len = String.length keyword in
  let next_input_index () =
    (* Position just past the token in the input: where an extension of
       the token would have to appear. *)
    match Taint.max_index (Tstring.taint tok) with
    | Some i -> Some (i + 1)
    | None -> None
  in
  let emit_char_event i result =
    let c = Tstring.get tok i in
    let index = Taint.max_index_raw c.Tchar.taint in
    if index >= 0 then emit t ~index ~kind:(Comparison.Char_eq keyword.[i]) ~result
  in
  let emit_suffix_event ~index ~offset =
    emit t ~index ~kind:(Comparison.Str_eq { expected = keyword; offset }) ~result:false
  in
  let rec walk i =
    if i >= tok_len && i >= kw_len then true (* full match *)
    else if i >= tok_len then begin
      (* Token is a proper prefix of the keyword: the mismatch is at the
         position just past the token. *)
      (match next_input_index () with
       | None -> ()
       | Some index ->
         emit t ~index ~kind:(Comparison.Char_eq keyword.[i]) ~result:false;
         if i > 0 then emit_suffix_event ~index ~offset:i);
      false
    end
    else if i >= kw_len then begin
      (* Token is longer than the keyword: no substitution can help at
         this position, but record the failed comparison for coverage. *)
      (match Taint.max_index (Tstring.get tok i).Tchar.taint with
       | None -> ()
       | Some index ->
         emit t ~index
           ~kind:(Comparison.Str_eq { expected = keyword; offset = kw_len })
           ~result:false);
      false
    end
    else if (Tstring.get tok i).Tchar.ch = keyword.[i] then begin
      emit_char_event i true;
      walk (i + 1)
    end
    else begin
      emit_char_event i false;
      (match Taint.max_index (Tstring.get tok i).Tchar.taint with
       | Some index when i > 0 -> emit_suffix_event ~index ~offset:i
       | Some _ | None -> ());
      false
    end
  in
  branch t site (walk 0)

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

let comparisons t = Vec.to_list t.comparisons
let comparisons_array t = Vec.to_array t.comparisons
let coverage t = Coverage.of_iter (fun f -> Vec.iter f t.touched)
let trace t = Vec.to_array t.trace
let touched t = Vec.to_array t.touched
let eof_access t = t.eof_access
let max_depth t = t.max_stack
let frames t = Vec.to_array t.frames
