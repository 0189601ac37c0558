(** Reference oracles: small, obviously-correct recognizers for the seed
    subjects' languages, written independently of the instrumented
    parsers in {!Pdf_subjects}.

    An oracle decides the same language as its subject but shares no code
    with it: each is a direct recursive-descent recognizer over a plain
    [string], derived from the subject's documented grammar. The
    differential driver fuzzes subject against oracle; any disagreement
    is either a subject bug or an oracle bug, and both are worth
    knowing about. *)

type t = {
  name : string;  (** matching {!Pdf_subjects.Subject.t.name} *)
  accepts : string -> bool;
  grammar : Pdf_tables.Cfg.t;
      (** character-level grammar of (a diverse subset of) the language,
          the known-valid producer's sampling source *)
}

val all : t list
(** The five seed-subject oracles, in catalog order. *)

val find : string -> t option
