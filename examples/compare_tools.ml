(* A miniature of the paper's evaluation (Figures 2 and 3) on two
   subjects, small enough to finish in seconds.

   Run with: dune exec examples/compare_tools.exe *)

let () =
  let subjects =
    [ Pdf_subjects.Catalog.find "ini"; Pdf_subjects.Catalog.find "json" ]
  in
  let config =
    { Pdf_eval.Experiment.budget_units = 400_000; seeds = [ 1 ]; verbose = false }
  in
  let experiment = Pdf_eval.Experiment.run config subjects in
  Pdf_eval.Report.figure_2 Format.std_formatter experiment;
  Pdf_eval.Report.figure_3 Format.std_formatter experiment;
  Format.printf
    "@.The full evaluation over all five subjects, with the ablations, is@.  dune exec bin/pfuzzer_cli.exe -- evaluate@."
