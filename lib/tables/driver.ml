module Ctx = Pdf_instr.Ctx
module Site = Pdf_instr.Site
module Subject = Pdf_subjects.Subject
module Helpers = Pdf_subjects.Helpers
module Charset = Pdf_util.Charset

type coverage_mode = Code | Table_elements

type diagnostics = Silent | Expected_sets

(* The table resolved for the driver: a nonterminal is its index, a
   terminal carries its rejection, and each populated cell holds its
   production's right-hand side and its coverage site, so a step
   indexes arrays and allocates nothing but the stack cell of an
   expansion. *)
type symbol = Term of char * Ctx.rejection | Nonterm of int

type cell = { rhs : symbol list; cell_site : Site.t option }

type nonterminal = {
  frame_site : Site.t; (* entered on each expansion: the stack-depth signal *)
  cells : cell option array; (* by lookahead byte; [eof_cell] at end of input *)
  expected : Charset.t; (* the row's key set *)
  expected_slot : Ctx.slot option; (* [Expected_sets]: compares against it *)
}

type resolved = { nonterminals : nonterminal array; start : symbol list }

let r_trailing = Ctx.rejection "trailing input"
let r_eof = Ctx.rejection "unexpected end of input"
let r_no_entry = Ctx.rejection "no table entry"

let eof_cell = 256

(* [names] are the grammar's nonterminals in {!Cfg.nonterminals} order,
   which [frame_sites] follows; [cell_sites] are the coverage sites of
   the cells of {!Ll1.entries}, in that order, or none. *)
let resolve table ~names ~frame_sites ~cell_sites ~expected_site =
  let grammar = Ll1.grammar table in
  let productions = Array.of_list (Cfg.productions grammar) in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i nt -> Hashtbl.replace index nt i) names;
  let terminals = Hashtbl.create 64 in
  let symbol = function
    | Cfg.N nt -> Nonterm (Hashtbl.find index nt)
    | Cfg.T c ->
      (match Hashtbl.find_opt terminals c with
       | Some sym -> sym
       | None ->
         let sym = Term (c, Ctx.rejection (Printf.sprintf "expected %C" c)) in
         Hashtbl.replace terminals c sym;
         sym)
  in
  let nonterminals =
    Array.mapi
      (fun i nt ->
        let expected = Ll1.expected table nt in
        let expected_slot =
          Option.map
            (fun site ->
              Helpers.slot_set site ~label:(Printf.sprintf "expected(%s)" nt) expected)
            expected_site
        in
        { frame_site = frame_sites.(i); cells = Array.make (eof_cell + 1) None; expected;
          expected_slot })
      names
  in
  let entries = Ll1.entries table in
  let cell_sites =
    match cell_sites with
    | [] -> List.map (fun _ -> None) entries
    | sites -> List.map Option.some sites
  in
  List.iter2
    (fun (nt, lookahead, production) cell_site ->
      let rhs = List.map symbol productions.(production).Cfg.rhs in
      let slot = match lookahead with Some c -> Char.code c | None -> eof_cell in
      nonterminals.(Hashtbl.find index nt).cells.(slot) <- Some { rhs; cell_site })
    entries cell_sites;
  { nonterminals; start = [ Nonterm (Hashtbl.find index (Cfg.start grammar)) ] }

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
  let names = Array.of_list (Cfg.nonterminals (Ll1.grammar table)) in
  (* Per-nonterminal frame sites (for the stack-depth signal) and, in
     table-element mode, one site per populated cell. The cell sites
     stay a list: with an array of json's 349 (too long for the minor
     heap, so allocated on the major heap) building the subjects at
     module initialisation took about 0.6 ms longer. *)
  let frame_sites =
    Array.map (fun nt -> Site.block registry (Printf.sprintf "expand.%s" nt)) names
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
          Site.block registry (Printf.sprintf "%s->%d" label production))
        (Ll1.entries table)
  in
  (* Building the "expected one of …" message compares the lookahead
     against the row's key set — the comparison that makes table misses
     visible to the fuzzer. *)
  let expected_site =
    match diagnostics with Expected_sets -> Some b_expected | Silent -> None
  in
  (* Resolved on the first parse, not here: the ready-made table
     subjects are built at module initialisation in every program that
     links them, most of which never run one. Domains that race here
     each resolve an equal table over the same sites and either one is
     kept; the [Atomic.set] publishes it whole. *)
  let resolution = Atomic.make None in
  let resolved () =
    match Atomic.get resolution with
    | Some r -> r
    | None ->
      let r = resolve table ~names ~frame_sites ~cell_sites ~expected_site in
      Atomic.set resolution (Some r);
      r
  in
  (* [syms] is what is left of the innermost production, [frames] the
     rest of each enclosing one: an expansion pushes the production's
     resolved right-hand side as it is, and finishing one exits its
     frame. Each step ticks once. *)
  let rec loop nts ctx syms frames =
    Ctx.tick ctx;
    match syms with
    | [] ->
      (match frames with
       | rest :: frames ->
         Ctx.exit_frame ctx;
         loop nts ctx rest frames
       | [] ->
         (match Ctx.peek ctx with
          | Some _ ->
            ignore (Ctx.branch ctx b_trailing true);
            Ctx.reject ctx r_trailing
          | None -> ignore (Ctx.branch ctx b_trailing false)))
    | Term (expected, mismatch) :: rest ->
      (match Ctx.next ctx with
       | None -> Ctx.reject ctx r_eof
       | Some c ->
         if Ctx.eq ctx b_match_terminal c expected then loop nts ctx rest frames
         else Ctx.reject ctx mismatch)
    | Nonterm i :: rest ->
      let nt = nts.(i) in
      (match Ctx.peek ctx with
       | None ->
         (match nt.cells.(eof_cell) with
          | Some cell ->
            ignore (Ctx.branch ctx b_eof_lookup true);
            expand nts ctx nt cell rest frames
          | None ->
            ignore (Ctx.branch ctx b_eof_lookup false);
            Ctx.reject ctx r_eof)
       | Some c ->
         (* Direct table indexing: no comparison happens here, exactly
            as in a real table-driven parser. *)
         (match nt.cells.(Char.code c.Pdf_taint.Tchar.ch) with
          | Some cell ->
            ignore (Ctx.branch ctx b_lookup_hit true);
            expand nts ctx nt cell rest frames
          | None ->
            ignore (Ctx.branch ctx b_lookup_hit false);
            (match nt.expected_slot with
             | Some sl -> ignore (Ctx.in_set_slot ctx sl c nt.expected)
             | None -> ());
            Ctx.reject ctx r_no_entry))
  and expand nts ctx nt cell rest frames =
    (match cell.cell_site with Some site -> Ctx.cover ctx site | None -> ());
    Ctx.enter_frame ctx nt.frame_site;
    loop nts ctx cell.rhs (rest :: frames)
  in
  let parse ctx =
    let r = resolved () in
    Ctx.cover ctx s_driver;
    loop r.nonterminals ctx r.start []
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
