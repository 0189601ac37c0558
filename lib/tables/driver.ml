module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Subject = Pdf_subjects.Subject

type coverage_mode = Code | Table_elements

type diagnostics = Silent | Expected_sets

(* Parse-stack elements: grammar symbols plus an end-of-frame marker so
   nonterminal expansions show up as stack frames for the heuristic. *)
type stack_element = Sym of Cfg.symbol | Pop_frame

let subject ~name ~description ?(coverage = Table_elements)
    ?(diagnostics = Expected_sets) ?(tokens = []) ?(tokenize = fun _ -> [])
    table =
  let registry = Site.create_registry name in
  let s_driver = Site.block registry "driver" in
  let b_match_terminal = Site.branch registry "driver.match-terminal" in
  let b_lookup_hit = Site.branch registry "driver.lookup-hit?" in
  let b_eof_lookup = Site.branch registry "driver.eof-lookup?" in
  let b_trailing = Site.branch registry "driver.trailing?" in
  let b_expected = Site.branch registry "driver.expected-set" in
  let grammar = Ll1.grammar table in
  (* Per-nonterminal frame sites (for the stack-depth signal) and, in
     table-element mode, one site per populated cell. *)
  let frame_sites =
    List.map
      (fun nt -> (nt, Site.block registry (Printf.sprintf "expand.%s" nt)))
      (Cfg.nonterminals grammar)
  in
  let cell_sites =
    match coverage with
    | Code -> []
    | Table_elements ->
      List.map
        (fun (nt, lookahead, production) ->
          let label =
            match lookahead with
            | Some c -> Printf.sprintf "cell.%s.%C" nt c
            | None -> Printf.sprintf "cell.%s.EOF" nt
          in
          ((nt, lookahead), Site.block registry (Printf.sprintf "%s->%d" label production)))
        (Ll1.entries table)
  in
  let cover_cell ctx nt lookahead =
    match List.assoc_opt (nt, lookahead) cell_sites with
    | Some site -> Ctx.cover ctx site
    | None -> ()
  in
  let parse ctx =
    Ctx.cover ctx s_driver;
    let expand ctx nt production =
      (match List.assoc_opt nt frame_sites with
       | Some site -> Ctx.enter_frame ctx site
       | None -> ());
      List.rev_append
        (List.rev_map (fun sym -> Sym sym) production.Cfg.rhs)
        [ Pop_frame ]
    in
    let reject_with_diagnostics ctx nt reason =
      (match (diagnostics, Ctx.peek ctx) with
       | Expected_sets, Some c ->
         (* Building the "expected one of …" message compares the
            lookahead against the row's key set — the comparison that
            makes table misses visible to the fuzzer. *)
         ignore
           (Ctx.in_set ctx b_expected ~label:(Printf.sprintf "expected(%s)" nt) c
              (Ll1.expected table nt))
       | Expected_sets, None | Silent, _ -> ());
      Ctx.reject ctx reason
    in
    let rec loop stack =
      Ctx.tick ctx;
      match stack with
      | [] ->
        (match Ctx.peek ctx with
         | Some _ ->
           ignore (Ctx.branch ctx b_trailing true);
           Ctx.reject ctx "trailing input"
         | None -> ignore (Ctx.branch ctx b_trailing false))
      | Pop_frame :: rest ->
        Ctx.exit_frame ctx;
        loop rest
      | Sym (Cfg.T expected) :: rest ->
        (match Ctx.next ctx with
         | None -> Ctx.reject ctx "unexpected end of input"
         | Some c ->
           if Ctx.eq ctx b_match_terminal c expected then loop rest
           else Ctx.reject ctx (Printf.sprintf "expected %C" expected))
      | Sym (Cfg.N nt) :: rest ->
        (match Ctx.peek ctx with
         | None ->
           (match Ll1.lookup_eof table nt with
            | Some production ->
              ignore (Ctx.branch ctx b_eof_lookup true);
              cover_cell ctx nt None;
              loop (expand ctx nt production @ rest)
            | None ->
              ignore (Ctx.branch ctx b_eof_lookup false);
              Ctx.reject ctx "unexpected end of input")
         | Some c ->
           (* Direct table indexing: no comparison happens here, exactly
              as in a real table-driven parser. *)
           (match Ll1.lookup table nt c.Pdf_taint.Tchar.ch with
            | Some production ->
              ignore (Ctx.branch ctx b_lookup_hit true);
              cover_cell ctx nt (Some c.Pdf_taint.Tchar.ch);
              loop (expand ctx nt production @ rest)
            | None ->
              ignore (Ctx.branch ctx b_lookup_hit false);
              reject_with_diagnostics ctx nt "no table entry"))
    in
    loop [ Sym (Cfg.N (Cfg.start grammar)) ]
  in
  {
    Subject.name;
    description;
    registry;
    parse;
    machine = None;
    fuel = 50_000;
    tokens;
    tokenize;
    original_loc = 0;
  }
