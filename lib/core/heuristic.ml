module Coverage = Pdf_instr.Coverage

type variant =
  | Prose
  | Paper_formula
  | No_stack
  | No_length
  | No_replacement
  | Coverage_only
  | Dfs
  | Bfs

let all =
  [
    ("prose", Prose);
    ("paper-formula", Paper_formula);
    ("no-stack", No_stack);
    ("no-length", No_length);
    ("no-replacement", No_replacement);
    ("coverage-only", Coverage_only);
    ("dfs", Dfs);
    ("bfs", Bfs);
  ]

(* The one scoring definition, over the raw fields of a candidate:
   [new_cov] is the count of parent-coverage outcomes not yet in vBr,
   [len] and [repl] are the lengths of the input and of its
   replacement. [score] calls it on a [Candidate.t]; the candidate queue
   calls it on its columns, with the new-coverage count it keeps per
   sibling group. Float addition is not associative, so this operation
   order is what makes both paths agree bit for bit. *)
let score_parts variant ~new_cov ~len ~repl ~avg_stack ~parents ~path_count =
  let new_cov = float_of_int new_cov in
  let len = float_of_int len in
  let repl = float_of_int repl in
  let parents = float_of_int parents in
  let path_penalty = float_of_int path_count in
  match variant with
  | Prose -> new_cov -. len +. (2.0 *. repl) -. avg_stack -. parents -. path_penalty
  | Paper_formula ->
    new_cov -. len +. (2.0 *. repl) -. avg_stack +. parents -. path_penalty
  | No_stack -> new_cov -. len +. (2.0 *. repl) -. parents -. path_penalty
  | No_length -> new_cov +. (2.0 *. repl) -. avg_stack -. parents -. path_penalty
  | No_replacement -> new_cov -. len -. avg_stack -. parents -. path_penalty
  | Coverage_only -> new_cov
  | Dfs -> len
  | Bfs -> -.len

let score variant ~vbr (c : Candidate.t) =
  score_parts variant
    ~new_cov:(Coverage.new_against c.parent_coverage ~baseline:vbr)
    ~len:(String.length c.data) ~repl:(String.length c.repl)
    ~avg_stack:c.avg_stack ~parents:c.parents ~path_count:c.path_count
