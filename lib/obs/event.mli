(** The trace event model.

    Every event is stamped with two clocks: [t_ns], monotonic
    nanoseconds since the observer was created, and [exec], the
    execution-count clock (how many subject executions had completed
    when the event fired — the paper's x-axis). Events serialize as
    single-line flat JSON objects; the schema is documented in
    DESIGN.md §9. *)

type t =
  | Run_meta of {
      subject : string;
      outcomes : int;  (** total branch outcomes in the subject registry *)
      seed : int;
      max_executions : int;
      incremental : bool;
      sample : int;
          (** the observer's sample rate: exec-level events and phase
              spans cover 1 in [sample] loop iterations; 1 when a trace
              predates the field *)
    }  (** first event of a fuzzing run *)
  | Cell of { tool : string; subject : string; seed : int }
      (** marks the start of one evaluation-grid cell in a merged trace *)
  | Exec_done of {
      dur_ns : int;  (** full processing span, including child generation *)
      verdict : string;  (** "accepted", "rejected" or "hang" *)
      cached : bool;  (** resumed from a prefix snapshot *)
      sub_index : int;  (** substitution index, -1 when none *)
      cov : int;  (** valid-coverage cardinal after this execution *)
      cov_delta : int;  (** branches this execution added to it *)
      valid : bool;
      len : int;
      depth : int;
          (** candidate-queue length when the event was recorded; 0 when
              a trace predates the field *)
    }
  | Valid of { input : string; cov : int; count : int }
  | Cache_hit of { saved : int }  (** [saved] prefix chars not re-parsed *)
  | Cache_miss
  | Hang of { total : int }
      (** an execution exhausted its fuel ([Ctx.Out_of_fuel]); [total]
          is the cumulative hang count *)
  | Crash of { exn : string; site : int; fresh : bool; total : int }
      (** the subject crashed; [fresh] marks the first sighting of this
          [(exn, site)] identity, duplicates have [fresh = false];
          [total] is the cumulative crash count *)
  | Retry of { what : string; attempt : int; detail : string }
      (** a failed unit of work (e.g. an evaluation-grid cell) is being
          retried; [attempt] counts from 1 *)
  | Phases of { spans : (string * int) list; wall_ns : int }
      (** cumulative per-phase wall-clock spans at end of run; spans
          serialize as one [<name>_ns] field each *)
  | Run_done of { valid : int; cov : int; wall_ns : int; execs_per_sec : float }

type stamped = { t_ns : int; exec : int; ev : t }

val kind : t -> string
val to_json_line : stamped -> string
(** One flat JSON object, no trailing newline. *)

val of_json_line : string -> stamped
(** Inverse of {!to_json_line}. Raises {!Json.Malformed} on anything
    that is not a well-formed event line. *)
