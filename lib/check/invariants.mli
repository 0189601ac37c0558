(** Machine-checked invariants of the fuzzer's own machinery, run
    against a live {!Pdf_core.Pfuzzer} search under a seeded RNG.

    Checked:
    - {b determinism}: two runs from the same seed are identical;
    - {b queue-priority monotonicity}: every queue operation the fuzzer
      performs, replayed against a reference model (sorted list with
      insertion-order tie-break), pops exactly the entry the model
      predicts; a re-rank keeps the same entries in insertion order and
      raises no priority, and a truncation keeps exactly the model's
      best [queue_bound] entries. The replay runs at the campaign's
      bound and again at a bound of 32, where the queue truncates;
    - {b coverage-union monotonicity}: the reported valid coverage is
      the union of the valid inputs' coverage, and each valid input
      contributed branches new at its discovery time (Algorithm 1's
      [runCheck] condition);
    - {b checkpoint/resume equivalence}: a campaign interrupted at a
      checkpoint and resumed from the encode/decode round-trip of that
      checkpoint produces exactly the uninterrupted campaign (timing
      aside);
    - {b grid determinism}: [Experiment.run ~jobs:1] and [~jobs:3]
      produce semantically equal cells;
    - {b distributed equivalence}: the same campaign through
      {!Pdf_eval.Dist}'s in-process sequential reference and through
      forked fleets of 1, 2 and 4 workers merges to one bit-identical
      result — worker count, scheduling and frame arrival order are
      invisible in the merged campaign;
    - {b trace/coverage agreement}: the [touched] first-occurrence
      order, the coverage bitset, [coverage_up_to_last_index] and
      [path_hash] are mutually consistent, and opting into the full
      trace does not perturb any of them. *)

type check = { name : string; ok : bool; detail : string }

type report = { subject : string; checks : check list }

val results_equal : Pdf_core.Pfuzzer.result -> Pdf_core.Pfuzzer.result -> bool
(** Timing- and cache-insensitive campaign equality: same valid inputs,
    coverage, branch hit-counts, execution/candidate/queue counters,
    hang count and crash corpus. Wall-clock fields and cache accounting
    are deliberately ignored — they may differ between runs that are
    semantically the same campaign. *)

val run : ?execs:int -> ?seed:int -> Pdf_subjects.Subject.t -> report
(** [run subject] drives the fuzzer for [execs] (default 400)
    executions with [seed] (default 1) and evaluates every invariant. *)

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
