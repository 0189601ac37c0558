(** Differential fuzzing of an instrumented subject against its
    reference oracle.

    Inputs come from three interleaved streams — grammar-derived valid
    inputs, oracle-rejected mutants of those, and short random strings —
    and every one is judged by both deciders. Three properties are
    checked:

    - {b verdict agreement}: subject accepts iff oracle accepts;
    - {b no hangs}: the subject never exhausts its fuel on these inputs;
    - {b EOF hunger}: every proper prefix of an agreed-valid input is
      either itself accepted or rejected with an EOF access recorded —
      the signal Algorithm 1 needs to know an input wants extension
      rather than substitution.

    Every disagreement is shrunk to a local minimum before being
    reported. *)

type kind =
  | Verdict_mismatch  (** subject and oracle decide differently *)
  | Hang  (** subject ran out of fuel *)
  | Eof_starvation
      (** a prefix of a valid input was rejected without EOF access *)

type disagreement = {
  input : string;  (** as found *)
  shrunk : string;  (** minimised, still disagreeing *)
  kind : kind;
  detail : string;
}

type report = {
  subject : string;
  executions : int;  (** subject executions, including shrinking *)
  inputs_checked : int;
  prefixes_checked : int;
  disagreements : disagreement list;
}

val run :
  ?execs:int -> ?seed:int -> Pdf_subjects.Subject.t -> Oracle.t -> report
(** [run subject oracle] spends about [execs] (default 2000) subject
    executions, seeded by [seed] (default 1). Stops early after 10
    disagreements. *)

val pp_report : Format.formatter -> report -> unit
