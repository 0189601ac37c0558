(** The search heuristic of Algorithm 1 (procedure [heur], lines 47–51),
    with variants for the ablation study.

    The paper's prose and its pseudo-code disagree on the sign of the
    [numParents] term: line 50 {e adds} it, while §3.1 says inputs with
    fewer parents "should be ranked higher in the queue". {!Prose} (the
    default everywhere) subtracts; {!Paper_formula} adds, reproducing the
    pseudo-code literally. The remaining variants drop individual terms,
    and {!Dfs}/{!Bfs} replace the heuristic with pure depth-/breadth-first
    ordering for the Section 3 search-strategy comparison. *)

type variant =
  | Prose  (** full heuristic, parents subtracted *)
  | Paper_formula  (** full heuristic, parents added (pseudo-code literal) *)
  | No_stack  (** drop the average-stack-size term *)
  | No_length  (** drop the input-length term *)
  | No_replacement  (** drop the replacement-length bonus *)
  | Coverage_only  (** new-coverage count alone *)
  | Dfs  (** longest input first *)
  | Bfs  (** shortest input first *)

val all : (string * variant) list
(** Name/variant pairs for command lines and reports. *)

val score : variant -> vbr:Pdf_instr.Coverage.t -> Candidate.t -> float
(** Priority of a candidate against the current valid-branch set; higher
    runs earlier. *)

val score_parts :
  variant ->
  new_cov:int ->
  len:int ->
  repl:int ->
  avg_stack:float ->
  parents:int ->
  path_count:int ->
  float
(** [score] over raw fields: [new_cov] is [Coverage.new_against
    parent_coverage ~baseline:vbr], [len] and [repl] are the lengths of
    the input and of its replacement, and the rest are the candidate's
    fields of the same names. {!score} is defined through it, so a
    caller that keeps these fields in its own layout — the candidate
    queue's columns — gets bit-identical priorities. *)
