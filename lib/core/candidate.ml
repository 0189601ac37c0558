type t = {
  data : string;
  repl : string;
  parents : int;
  parent_coverage : Pdf_instr.Coverage.t;
  avg_stack : float;
  path_count : int;
}

let seed data =
  {
    data;
    repl = "";
    parents = 0;
    parent_coverage = Pdf_instr.Coverage.empty;
    avg_stack = 0.0;
    path_count = 0;
  }
