(** A uniform driver over the three test generators, with the virtual
    time-budget model described in DESIGN.md §5: every (tool, subject)
    pair receives the same budget in {e units}, one AFL execution costs 1
    unit, and one pFuzzer or KLEE execution costs 100 units (the paper's
    ~100× instrumentation slowdown, §4; AFL generated ~1000× more inputs,
    §5.2). *)

type name = Afl | Klee | Pfuzzer

val all : name list
(** In the paper's presentation order: AFL, KLEE, pFuzzer. *)

val display_name : name -> string
val of_string : string -> name option
val cost_per_execution : name -> int

type outcome = {
  tool : name;
  subject : string;
  valid_inputs : string list;
  valid_coverage : Pdf_instr.Coverage.t;
  executions : int;
  cache : Pdf_core.Pfuzzer.cache_stats;
      (** pFuzzer's prefix-snapshot cache accounting; all zero for AFL
          and KLEE (they have no incremental engine) *)
  crashes : Pdf_core.Pfuzzer.crash list;
      (** deduplicated crash corpus; always empty for AFL and KLEE
          (their subjects run through the same contained runner via
          pFuzzer only) *)
  crash_total : int;  (** executions that ended in a contained crash *)
  hangs : int;  (** executions that exhausted their fuel *)
  wall_clock_s : float;  (** wall-clock duration of the run *)
  execs_per_sec : float;  (** [executions /. wall_clock_s], 0 if untimed *)
}

val empty_outcome : name -> subject:string -> outcome
(** The all-zero outcome: no inputs, no coverage, no executions. Used by
    {!Experiment} to mark a grid cell whose every execution attempt
    failed, so one sick cell cannot sink a whole evaluation. *)

val run :
  ?incremental:bool ->
  ?obs:Pdf_obs.Observer.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Pdf_core.Pfuzzer.Checkpoint.t -> unit) ->
  ?resume_from:Pdf_core.Pfuzzer.Checkpoint.t ->
  ?on_execution:(Pdf_instr.Runner.run -> unit) ->
  name -> budget_units:int -> seed:int -> Pdf_subjects.Subject.t -> outcome
(** Run one tool on one subject until the unit budget is exhausted.
    [incremental] (default true) toggles pFuzzer's prefix-snapshot cache;
    the other tools ignore it. [obs] attaches a telemetry observer to
    pFuzzer's run (the other tools are merely wall-clock timed). The
    resilience arguments apply to pFuzzer only and are ignored by AFL and
    KLEE: [on_checkpoint] receives a checkpoint every [checkpoint_every]
    executions, [resume_from] continues a checkpointed campaign (its
    config overrides [budget_units] and [seed]), and [on_execution]
    observes every completed run. *)
