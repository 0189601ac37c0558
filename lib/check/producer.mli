(** Test-input production for the differential driver.

    Known-valid inputs are sampled from the oracle's character-level
    grammar (reusing {!Pdf_grammar.Generator} over a converted
    {!Pdf_tables.Cfg}) and filtered through the oracle — the grammars
    over-approximate slightly (e.g. the table-JSON grammar has no
    surrogate-pair rule), so the oracle has the last word. Known-invalid
    inputs are oracle-rejected mutants of valid ones, which keeps them
    {e near} the language boundary where disagreements live. *)

val valid : Pdf_util.Rng.t -> Oracle.t -> string option
(** A grammar-derived input the oracle accepts, or [None] when the
    bounded retry budget only produced oracle-rejected sentences. *)

val invalid : Pdf_util.Rng.t -> Oracle.t -> string option
(** A mutant of a valid input that the oracle rejects. *)

val random_input : Pdf_util.Rng.t -> string
(** A short random string over the fuzzer's printable alphabet. *)
