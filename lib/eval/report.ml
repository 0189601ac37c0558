module Render = Pdf_util.Render
module Subject = Pdf_subjects.Subject
module Token = Pdf_subjects.Token

let table_1 ppf subjects =
  let rows =
    List.map
      (fun (s : Subject.t) ->
        let paper_loc =
          match List.assoc_opt s.name Paper_data.table1_loc with
          | Some n -> string_of_int n
          | None -> "-"
        in
        [
          s.name;
          paper_loc;
          string_of_int (Pdf_instr.Site.site_count s.registry);
          string_of_int (Pdf_instr.Site.total_outcomes s.registry);
          string_of_int (List.length s.tokens);
        ])
      subjects
  in
  Render.table ppf ~title:"Table 1: evaluation subjects"
    ~header:[ "subject"; "paper C LoC"; "sites"; "branch outcomes"; "tokens" ]
    rows

let token_inventory ppf (s : Subject.t) =
  let rows =
    Token.lengths s.tokens
    |> List.map (fun len ->
           let of_len = Token.of_length len s.tokens in
           let examples =
             of_len |> List.map (fun (t : Token.t) -> t.tag) |> fun tags ->
             let shown = List.filteri (fun i _ -> i < 8) tags in
             String.concat " " shown
             ^ if List.length tags > 8 then " ..." else ""
           in
           [ string_of_int len; string_of_int (List.length of_len); examples ])
  in
  Render.table ppf
    ~title:(Printf.sprintf "%s tokens and their number for each length" s.name)
    ~header:[ "length"; "#"; "examples" ]
    rows

let figure_2 ppf (e : Experiment.t) =
  let series = List.map Tool.display_name Tool.all in
  let rows =
    List.map
      (fun (subject, _) ->
        ( subject,
          List.map
            (fun tool -> (Experiment.cell e subject tool).Experiment.coverage_percent)
            Tool.all ))
      e.cells
  in
  Render.grouped_bar_chart ppf
    ~title:"Figure 2: branch coverage of valid inputs, per subject and tool (%)"
    ~series rows;
  let check_rows =
    List.filter_map
      (fun (subject, _) ->
        match List.assoc_opt subject Paper_data.coverage_order with
        | None -> None
        | Some paper_winner ->
          let measured_winner =
            Tool.all
            |> List.map (fun tool ->
                   ( Tool.display_name tool,
                     (Experiment.cell e subject tool).Experiment.coverage_percent ))
            |> List.fold_left
                 (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
                 ("-", neg_infinity)
            |> fst
          in
          Some [ subject; paper_winner; measured_winner ])
      e.cells
  in
  if check_rows <> [] then
    Render.table ppf ~title:"Highest coverage per subject: paper vs measured"
      ~header:[ "subject"; "paper"; "measured" ]
      check_rows

let figure_3 ppf (e : Experiment.t) =
  Format.fprintf ppf
    "@.Figure 3: tokens generated, grouped by token length (found/total)@.";
  List.iter
    (fun (s : Subject.t) ->
      Format.fprintf ppf "%s@." s.name;
      List.iter
        (fun tool ->
          let cell = Experiment.cell e s.name tool in
          let groups = Token_report.by_length s cell.Experiment.found_tags in
          let cells =
            groups
            |> List.map (fun (len, found, total) ->
                   Printf.sprintf "len %d: %d/%d" len found total)
          in
          Format.fprintf ppf "  %-8s %s@." (Tool.display_name tool)
            (String.concat "  " cells))
        Tool.all)
    e.subjects

let pp_shares ppf title measured paper =
  let rows =
    List.map
      (fun (tool, value) ->
        let paper_value =
          match List.assoc_opt tool paper with
          | Some v -> Printf.sprintf "%.1f%%" v
          | None -> "-"
        in
        [ Tool.display_name tool; Printf.sprintf "%.1f%%" value; paper_value ])
      measured
  in
  Render.table ppf ~title ~header:[ "tool"; "measured"; "paper" ] rows

let headline ppf (e : Experiment.t) =
  pp_shares ppf "Tokens of length <= 3 found (all subjects)"
    (Experiment.headline e ~min_len:0 ~max_len:3)
    Paper_data.headline_short;
  pp_shares ppf "Tokens of length > 3 found (all subjects)"
    (Experiment.headline e ~min_len:4 ~max_len:max_int)
    Paper_data.headline_long

(* Wall-clock throughput per cell. The virtual unit budget equalizes the
   tools' simulated effort; this table shows the real cost of producing
   each cell. *)
let throughput ppf (e : Experiment.t) =
  let rows =
    List.concat_map
      (fun (subject, per_tool) ->
        List.map
          (fun (tool, cell) ->
            let o = cell.Experiment.outcome in
            [
              subject;
              Tool.display_name tool;
              string_of_int o.Tool.executions;
              Printf.sprintf "%.2f" o.Tool.wall_clock_s;
              Printf.sprintf "%.0f" o.Tool.execs_per_sec;
            ])
          per_tool)
      e.cells
  in
  Render.table ppf ~title:"Throughput: executions and wall clock per cell"
    ~header:[ "subject"; "tool"; "executions"; "wall (s)"; "execs/sec" ]
    rows

(* Contained misbehaviour per cell: fuel exhaustions and deduplicated
   crashes. Only cells that misbehaved are listed; a fully healthy grid
   renders a one-line all-clear instead of an empty table. *)
let resilience ppf (e : Experiment.t) =
  let rows =
    List.concat_map
      (fun (subject, per_tool) ->
        List.filter_map
          (fun (tool, cell) ->
            let o = cell.Experiment.outcome in
            if o.Tool.hangs = 0 && o.Tool.crash_total = 0 then None
            else
              Some
                [
                  subject;
                  Tool.display_name tool;
                  string_of_int o.Tool.hangs;
                  string_of_int o.Tool.crash_total;
                  string_of_int (List.length o.Tool.crashes);
                ])
          per_tool)
      e.cells
  in
  if rows = [] then
    Format.fprintf ppf "no hangs or contained crashes in any cell@."
  else
    Render.table ppf ~title:"Contained misbehaviour per cell"
      ~header:[ "subject"; "tool"; "hangs"; "crashes"; "unique crashes" ]
      rows

let failed_cells ppf (e : Experiment.t) =
  if e.failures <> [] then
    Render.table ppf
      ~title:"Failed cells (all retries exhausted; reported as all-zero)"
      ~header:[ "subject"; "tool"; "seed"; "error" ]
      (List.map
         (fun (f : Experiment.failure) ->
           [
             f.f_subject;
             Tool.display_name f.f_tool;
             string_of_int f.f_seed;
             f.f_error;
           ])
         e.failures)

let full ppf (e : Experiment.t) =
  Render.section ppf "Table 1";
  table_1 ppf e.subjects;
  Render.section ppf "Tables 2-4: token inventories";
  List.iter
    (fun (s : Subject.t) ->
      if List.mem s.name [ "json"; "tinyc"; "mjs" ] then token_inventory ppf s)
    e.subjects;
  Render.section ppf "Figure 2";
  figure_2 ppf e;
  Render.section ppf "Figure 3";
  figure_3 ppf e;
  Render.section ppf "Headline (Section 5.3)";
  headline ppf e;
  Render.section ppf "Throughput";
  throughput ppf e;
  Render.section ppf "Resilience";
  resilience ppf e;
  failed_cells ppf e
