(** Chaos harness: drive seeded campaigns through deterministic fault
    plans ({!Pdf_fault.Fault}) and check that the fuzzer degrades
    gracefully instead of aborting or corrupting its results.

    Checked, per subject:
    - {b chaos survival}: a seeded mixed-kind plan fires and the
      campaign still exhausts its budget with every valid input
      genuinely accepted and the valid coverage still the union of the
      valid inputs' coverage;
    - {b crash containment}: injected exceptions surface as contained
      crashes sharing one deduplicated (exception, site) identity;
    - {b starvation hangs}: fuel-starved executions surface as hangs;
    - {b slowdown neutrality}: slowed executions leave the campaign
      bit-identical (wall clock aside);
    - {b worker-death retry}: in {!Pdf_eval.Parallel.map_retry}, a task
      whose domain dies transiently is retried to success and a
      permanently dying task is isolated as [Error] without sinking the
      rest of the grid. *)

val run : ?execs:int -> ?seed:int -> Pdf_subjects.Subject.t -> Invariants.report
(** [run subject] drives the chaos drills with [execs] (default 400)
    executions per campaign under [seed] (default 1). Fault plans are
    derived deterministically from the seed, so a failure reproduces. *)

val ok : Invariants.report -> bool

val pp_report : Format.formatter -> Invariants.report -> unit
