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
    }
  | Valid of { input : string; cov : int; count : int }
  | Queue_push of { prio : float; len : int; depth : int }
  | Queue_pop of { prio : float; len : int; depth : int }
  | Cache_hit of { saved : int }  (** [saved] prefix chars not re-parsed *)
  | Cache_miss
  | Hang of { total : int }
      (** an execution exhausted its fuel ([Ctx.Out_of_fuel]); [total]
          is the cumulative hang count *)
  | Crash of { exn : string; site : int; fresh : bool; total : int }
      (** the subject crashed; [fresh] marks the first sighting of this
          [(exn, site)] identity, duplicates have [fresh = false];
          [total] is the cumulative crash count *)
  | Fault of { kind : string }
      (** a planned fault fired at this execution (chaos runs only);
          [kind] is the {!Pdf_fault.Fault.kind_label} *)
  | Rescue of { prefix : int }
      (** a cached-snapshot resume crashed; the entry was invalidated
          and the input re-executed cold *)
  | Retry of { what : string; attempt : int; detail : string }
      (** a failed unit of work (e.g. an evaluation-grid cell) is being
          retried; [attempt] counts from 1 *)
  | Snapshot of {
      execs_per_sec : float;
      depth : int;
      valid : int;
      cov : int;
      hits : int;
      misses : int;
      rescues : int;
          (** cumulative cache rescues (poisoned snapshot re-executed
              cold); absent in pre-PR-9 traces, parsed as 0 *)
      plateau : int;  (** executions since valid coverage last grew *)
      hangs : int;
      crashes : int;
    }  (** periodic status sample, driving the live progress line *)
  | Phases of { spans : (string * int) list; wall_ns : int }
      (** cumulative per-phase wall-clock spans at end of run; spans
          serialize as one [<name>_ns] field each *)
  | Run_done of { valid : int; cov : int; wall_ns : int; execs_per_sec : float }
  | Shard of { shard : int; seed : int; budget : int }
      (** one entry of a distributed campaign's shard plan, emitted by
          the coordinator before any worker is spawned *)
  | Worker_spawn of { worker : int; pid : int; shards : int }
      (** a campaign worker process was forked; [shards] is how many
          plan entries it owns *)
  | Worker_frame of { worker : int; shard : int; seq : int; final : bool }
      (** the coordinator accepted a sync frame; [seq] is the frame's
          per-shard sequence number, [final] marks the shard's result
          frame (progress frames have [final = false]) *)
  | Worker_exit of { worker : int; status : string; missing : int }
      (** a worker's pipe reached EOF and it was reaped; [status] is
          ["exit:<code>"] or ["signal:<signum>"], [missing] counts its
          shards that still lack a final frame (each will be replayed) *)

type stamped = { t_ns : int; exec : int; ev : t }

val kind : t -> string
val to_json_line : stamped -> string
(** One flat JSON object, no trailing newline. *)

val of_json_line : string -> stamped
(** Inverse of {!to_json_line}. Raises {!Json.Malformed} on anything
    that is not a well-formed event line. *)
