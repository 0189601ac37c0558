(** First-class subject descriptions.

    A subject bundles everything the fuzzers and the evaluation need: the
    instrumented parser, its site registry (coverage denominator), its
    token inventory and an oracle tokenizer that maps a {e valid} input to
    the set of token tags it contains. Every execution is one call of
    [parse] on the whole input. *)

type machine
(** Uninhabited: see {!Pdf_instr.Runner.snapshot}. *)

type t = {
  name : string;
  description : string;
  registry : Pdf_instr.Site.registry;
  parse : Pdf_instr.Ctx.t -> unit;
  machine : machine option;  (** always [None] *)
  fuel : int;  (** per-run fuel budget (interpreting subjects hang) *)
  tokens : Token.t list;
  tokenize : string -> string list;
      (** token tags occurring in a valid input; behaviour on invalid
          inputs is unspecified *)
  original_loc : int;  (** lines of code of the paper's C subject (Table 1) *)
}

val run :
  ?track_comparisons:bool -> ?track_trace:bool -> ?track_frames:bool ->
  t -> string ->
  Pdf_instr.Runner.run
(** Execute the subject on one input with its fuel budget. Pass
    [~track_comparisons:false] to skip the comparison log (lexical
    fuzzers need only coverage) and [~track_trace:true] to record the
    full outcome trace with multiplicities (the AFL shim's bitmap needs
    it; the pFuzzer search does not). *)

val exec_journaled :
  t -> machine -> string -> Pdf_instr.Runner.run * Pdf_instr.Runner.journal
(** Cannot run: see {!machine}. *)

val accepts : t -> string -> bool
