(** A queued input candidate together with the heuristic ingredients
    snapshotted from the run that produced it (§3.2: re-evaluating the
    queue must not re-run inputs, so everything the heuristic needs is
    stored alongside the input). *)

type t = {
  data : string;  (** the input to execute next *)
  repl : string;  (** the substitution that created it; [""] for seeds *)
  parents : int;  (** substitutions on the path from the initial input *)
  parent_coverage : Pdf_instr.Coverage.t;
      (** coverage of the creating run up to the last accepted character —
          diffed against the valid-branch set when (re)ranking *)
  avg_stack : float;  (** mean stack depth of the last two comparisons *)
  path_count : int;
      (** how often the creating run's path had already been seen *)
}

val seed : string -> t
(** A fresh random seed input with neutral metadata. *)
