module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Comparison = Pdf_instr.Comparison
module Charset = Pdf_util.Charset
module Tstring = Pdf_taint.Tstring

(* The kinds built here are exactly what the tracked [Ctx] operations
   build per call, so comparison logs are the same either way. *)
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

let read_set ctx sl set =
  (* Accumulate in reverse and build the token once: appending to an
     immutable Tstring per character would copy the whole prefix each
     time (quadratic in token length). *)
  let rec go acc =
    match Ctx.peek ctx with
    | None -> acc
    | Some c ->
      if Ctx.in_set_slot ctx sl c set then begin
        ignore (Ctx.next ctx);
        go (c :: acc)
      end
      else acc
  in
  Tstring.of_chars (List.rev (go []))

let expect ctx site expected =
  match Ctx.next ctx with
  | None -> Ctx.reject ctx (Printf.sprintf "expected %C, found end of input" expected)
  | Some c ->
    if not (Ctx.eq ctx site c expected) then
      Ctx.reject ctx (Printf.sprintf "expected %C" expected)

let peek_is ctx site expected =
  match Ctx.peek ctx with
  | None -> false
  | Some c -> Ctx.eq ctx site c expected

let eat_if ctx site expected =
  if peek_is ctx site expected then begin
    ignore (Ctx.next ctx);
    true
  end
  else false

(* {1 Staged continuation-style combinators for machine-form parsers}

   A parser fragment is a [k = Ctx.t -> Machine.step]; sequencing is by
   continuation. Two rules keep fragments suspension-safe (see
   {!Pdf_instr.Machine}): every input observation goes through a
   [Peek]/[Next] step (never [Ctx.peek]/[Ctx.next]/[Ctx.at_eof]
   directly), and no closure captures a [Ctx.t] across a step — the
   context always re-arrives as the continuation's argument, so the
   combinators below systematically shadow [ctx].

   Every combinator does its construction work when the parser is
   *staged* — once, at module initialisation or at nonterminal entry —
   instead of every time a fragment meets a context. The staging
   discipline mirrors partial evaluation:

   - [peek]/[next]/[skip] hoist their step node: one [Machine.Peek] /
     [Machine.Next] value is built per staging, not per character.
   - [expect] precomputes both reject messages.
   - [peek_is]/[eat_if] force both boolean continuations at stage time,
     so the runtime dispatch is a branch between two existing fragments.
   - [skip_while]/[skip_set] tie their two step nodes into a cycle with
     [let rec]: a character-skipping loop of any length allocates
     nothing at all.
   - [fix] closes self-referential fragments (line loops, record/rest
     cycles) so statically bounded recursion stages once. Truly
     recursive nonterminals (JSON values, nested expressions) remain
     plain OCaml functions that stage at each entry.
   - comparisons go through slots ([slot_*] above), which freeze a
     site's outcome ids and event kind, so the per-character
     observation does no site dispatch and allocates no kind block. *)
module K = struct
  module Machine = Pdf_instr.Machine
  module Tchar = Pdf_taint.Tchar

  type k = Ctx.t -> Machine.step

  let stop : k = fun _ -> Machine.Done

  let peek (f : Tchar.t option -> k) : k =
    let step = Machine.Peek (fun c ctx -> f c ctx) in
    fun _ -> step

  let next (f : Tchar.t option -> k) : k =
    let step = Machine.Next (fun c ctx -> f c ctx) in
    fun _ -> step

  (* Consume the (already peeked) character at the cursor, ignoring it. *)
  let skip (k : k) : k =
    let step = Machine.Next (fun _ ctx -> k ctx) in
    fun _ -> step

  let with_frame site (body : k -> k) (k : k) : k =
    let inner =
      body
        (fun ctx ->
          Ctx.exit_frame ctx;
          k ctx)
    in
    fun ctx ->
      Ctx.enter_frame ctx site;
      inner ctx

  (* Tie a self-referential fragment: [fix (fun self -> body)] stages
     [body] exactly once, with [self] dispatching back to it. The ref is
     written once during staging and only read afterwards, so staged
     parsers stay safe to share across domains (module-level staging
     runs before any domain spawns). *)
  let fix (f : k -> k) : k =
    let r = ref stop in
    let dispatch : k = fun ctx -> !r ctx in
    r := f dispatch;
    dispatch

  (* Character-skipping loop: two step nodes tied into a cycle, so a run
     of any length allocates nothing. [test] is the observation itself
     (a [Ctx.in_set_slot]/[Ctx.in_range_slot]/… call) and runs once per
     character. *)
  let skip_while (test : Tchar.t -> Ctx.t -> bool) (k : k) : k =
    let rec next_node = Machine.Next (fun _ _ -> peek_node)
    and peek_node =
      Machine.Peek
        (fun c ctx ->
          match c with
          | None -> k ctx
          | Some c -> if test c ctx then next_node else k ctx)
    in
    fun _ -> peek_node

  let skip_set site ~label set (k : k) : k =
    let sl = slot_set site ~label set in
    skip_while (fun c ctx -> Ctx.in_set_slot ctx sl c set) k

  let skip_range site lo hi (k : k) : k =
    let sl = slot_range site lo hi in
    skip_while (fun c ctx -> Ctx.in_range_slot ctx sl c lo hi) k

  (* The accumulator makes each loop state distinct, so the nodes cannot
     be tied into a static cycle: a suspension taken mid-token must
     remember the characters read so far, and a mutable accumulator
     would be shared with every resume. Build per character. *)
  let read_set site ~label set (f : Tstring.t -> k) : k =
    let sl = slot_set site ~label set in
    fun ctx ->
      let rec go acc _ctx =
        Machine.Peek
          (fun c ctx ->
            match c with
            | None -> f (Tstring.of_chars (List.rev acc)) ctx
            | Some c ->
              if Ctx.in_set_slot ctx sl c set then
                Machine.Next (fun _ ctx -> go (c :: acc) ctx)
              else f (Tstring.of_chars (List.rev acc)) ctx)
      in
      go [] ctx

  let reject_msgs expected =
    ( Printf.sprintf "expected %C, found end of input" expected,
      Printf.sprintf "expected %C" expected )

  let expect_with ~msg_eof ~msg site expected (k : k) : k =
    let sl = slot_eq site expected in
    next (fun c ->
        fun ctx ->
          match c with
          | None -> Ctx.reject ctx msg_eof
          | Some c ->
            if Ctx.eq_slot ctx sl c expected then k ctx else Ctx.reject ctx msg)

  let expect site expected (k : k) : k =
    let msg_eof, msg = reject_msgs expected in
    expect_with ~msg_eof ~msg site expected k

  let peek_is site expected (f : bool -> k) : k =
    let sl = slot_eq site expected in
    let on_hit = f true and on_miss = f false in
    peek (fun c ->
        fun ctx ->
          match c with
          | None -> on_miss ctx
          | Some c ->
            if Ctx.eq_slot ctx sl c expected then on_hit ctx else on_miss ctx)

  let eat_if site expected (f : bool -> k) : k =
    peek_is site expected (fun matched ->
        if matched then skip (f true) else f false)
end
