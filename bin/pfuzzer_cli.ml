(* Command-line interface to the parser-directed fuzzing toolkit:

     pfuzzer fuzz --subject json --tool pfuzzer --executions 20000
     pfuzzer fuzz --subject json --trace t.jsonl --stats-interval 1
     pfuzzer fuzz --subject json --trace t.jsonl --trace-sample 100
     pfuzzer campaign --subject json --workers 4 --executions 20000
     pfuzzer campaign --subject json --workers 4 --out summary.json
     pfuzzer trace-report t.jsonl
     pfuzzer run --subject tinyc "if(a<2)b=1;"
     pfuzzer evaluate --budget 2000000 --seeds 1,2,3
     pfuzzer mine --subject expr --executions 3000 --samples 20
     pfuzzer check --subject json --executions 2000 --seed 1
     pfuzzer subjects
*)

open Cmdliner

(* Validated argument converters: bad values become one-line errors with
   usage, never raw exceptions. *)

let bounded_int what ~min_v =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min_v -> Ok n
    | Some n ->
      Error
        (`Msg
           (Printf.sprintf "%s must be %s, got %d" what
              (if min_v > 0 then "positive" else "non-negative")
              n))
    | None ->
      Error (`Msg (Printf.sprintf "invalid %s %S, expected an integer" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int what = bounded_int what ~min_v:1
let nonneg_int what = bounded_int what ~min_v:0

let nonneg_float what =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be non-negative" what))
    | None ->
      Error (`Msg (Printf.sprintf "invalid %s %S, expected a number" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let subject_arg =
  let doc = "Subject parser to fuzz (see the `subjects' command)." in
  Arg.(required & opt (some string) None & info [ "s"; "subject" ] ~docv:"NAME" ~doc)

let find_subject name =
  match Pdf_subjects.Catalog.find name with
  | subject -> Ok subject
  | exception Not_found ->
    Error
      (`Msg
         (Printf.sprintf "unknown subject %S; available: %s" name
            (String.concat ", "
               (List.map
                  (fun s -> s.Pdf_subjects.Subject.name)
                  Pdf_subjects.Catalog.all))))

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let executions_arg default =
  let doc = "Execution budget." in
  Arg.(
    value
    & opt (pos_int "execution budget") default
    & info [ "n"; "executions" ] ~docv:"N" ~doc)

(* fuzz *)

let tool_arg =
  let doc = "Tool to run: pfuzzer, afl or klee." in
  Arg.(value & opt string "pfuzzer" & info [ "t"; "tool" ] ~docv:"TOOL" ~doc)

(* Build the observer requested on the command line (None when no
   telemetry flag is set) and run [f] with it. The trace file is staged
   to a temporary and renamed into place only after [f] returns: an
   interrupted or crashed run never leaves a truncated trace behind,
   only the previous complete file (if any). *)
let with_observer ~trace ~trace_sample ~stats_interval f =
  let staged = Option.map Pdf_util.Atomic_file.stage trace in
  let sink =
    Option.map
      (fun st -> Pdf_obs.Trace.jsonl (Pdf_util.Atomic_file.channel st))
      staged
  in
  let progress =
    if stats_interval > 0.0 then
      Some (Pdf_obs.Progress.create ~interval_s:stats_interval ())
    else None
  in
  let obs =
    match (sink, progress) with
    | None, None -> None
    | _ ->
      Some
        (Pdf_obs.Observer.create ?sink ~sample:trace_sample ?progress
           ~metrics:(Pdf_obs.Metrics.create ()) ())
  in
  let close_sink () =
    match sink with Some s -> Pdf_obs.Trace.close s | None -> ()
  in
  match f obs with
  | v ->
    close_sink ();
    Option.iter Pdf_util.Atomic_file.commit staged;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try close_sink () with _ -> ());
    Option.iter Pdf_util.Atomic_file.abort staged;
    Printexc.raise_with_backtrace e bt

(* Loading a checkpoint is the one place where a bad file must stop the
   run with a distinctive status: exit 2 lets scripts tell "checkpoint
   unusable" apart from both ordinary CLI errors and fuzzing failures. *)
let load_checkpoint_or_die path =
  match Pdf_core.Pfuzzer.Checkpoint.load path with
  | Ok ck -> ck
  | Error msg ->
    Printf.eprintf "pfuzzer: cannot resume from %s: %s\n%!" path msg;
    exit 2

let write_crash_corpus path (crashes : Pdf_core.Pfuzzer.crash list) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (c : Pdf_core.Pfuzzer.crash) ->
      let open Pdf_obs.Json in
      write_flat buf
        [
          ("exn", S c.exn);
          ("site", S (Printf.sprintf "%08x" c.site));
          ("detail", S c.detail);
          ("input", S c.input);
          ("first_at", I c.first_at);
          ("count", I c.count);
        ];
      Buffer.add_char buf '\n')
    crashes;
  Pdf_util.Atomic_file.write_string path (Buffer.contents buf)

let fuzz_cmd =
  let run subject_name tool_name seed executions quiet no_incremental trace
      trace_sample stats_interval checkpoint checkpoint_every resume
      crashes_out die_after =
    match find_subject subject_name with
    | Error e -> Error e
    | Ok subject ->
      (match Pdf_eval.Tool.of_string tool_name with
       | None ->
         Error
           (`Msg
              (Printf.sprintf "unknown tool %S; available: afl, klee, pfuzzer"
                 tool_name))
       | Some tool
         when tool <> Pdf_eval.Tool.Pfuzzer
              && (checkpoint <> None || resume || die_after > 0) ->
         Error
           (`Msg
              "--checkpoint, --resume and --die-after need pFuzzer's \
               deterministic engine; use --tool pfuzzer")
       | Some _ when resume && checkpoint = None ->
         Error (`Msg "--resume needs --checkpoint FILE to resume from")
       | Some tool ->
         let budget_units = executions * Pdf_eval.Tool.cost_per_execution tool in
         let resume_from =
           if resume then Some (load_checkpoint_or_die (Option.get checkpoint))
           else None
         in
         (match resume_from with
          | Some ck ->
            Printf.printf "# resuming %s from execution %d (seed and budget come from the checkpoint)\n"
              (Pdf_core.Pfuzzer.Checkpoint.subject_name ck)
              (Pdf_core.Pfuzzer.Checkpoint.executions ck)
          | None -> ());
         let on_checkpoint =
           Option.map
             (fun path ck -> Pdf_core.Pfuzzer.Checkpoint.save path ck)
             checkpoint
         in
         let on_execution =
           if die_after = 0 then None
           else begin
             let executed = ref 0 in
             Some
               (fun _ ->
                 incr executed;
                 if !executed >= die_after then begin
                   Printf.eprintf "pfuzzer: dying after %d executions (--die-after)\n%!"
                     die_after;
                   Unix._exit 137
                 end)
           end
         in
         let outcome =
           with_observer ~trace ~trace_sample ~stats_interval
             (fun obs ->
               Pdf_eval.Tool.run ?obs ?on_checkpoint ?resume_from ?on_execution
                 ?checkpoint_every ~incremental:(not no_incremental) tool
                 ~budget_units ~seed subject)
         in
         if not quiet then
           List.iter (fun input -> Printf.printf "%S\n" input) outcome.valid_inputs;
         let tags = Pdf_eval.Token_report.found_tags subject outcome.valid_inputs in
         Printf.printf
           "# %s on %s: %d executions in %.2fs (%.0f execs/sec), %d valid inputs, \
            %.1f%% branch coverage, %d hangs, %d crashes (%d unique), %d tokens: %s\n"
           (Pdf_eval.Tool.display_name tool)
           subject.name outcome.executions outcome.wall_clock_s
           outcome.execs_per_sec
           (List.length outcome.valid_inputs)
           (Pdf_instr.Coverage.percent outcome.valid_coverage subject.registry)
           outcome.hangs outcome.crash_total
           (List.length outcome.crashes)
           (List.length tags) (String.concat " " tags);
         let c = outcome.cache in
         if c.Pdf_core.Pfuzzer.hits + c.misses > 0 then
           Printf.printf
             "# prefix cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d chars saved\n"
             c.hits c.misses
             (100. *. float_of_int c.hits /. float_of_int (c.hits + c.misses))
             c.evictions c.chars_saved;
         (match crashes_out with
          | None -> ()
          | Some path ->
            write_crash_corpus path outcome.crashes;
            Printf.printf "# crash corpus (%d identities) written to %s\n"
              (List.length outcome.crashes) path);
         Ok ())
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary line.")
  in
  let no_incremental =
    Arg.(
      value & flag
      & info [ "no-incremental" ]
          ~doc:
            "Disable pFuzzer's prefix-snapshot cache and re-execute every \
             input from scratch. Results are bit-identical either way; this \
             exists for benchmarking and debugging.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured JSONL event trace of the run, one event per \
             line (see `trace-report').")
  in
  let stats_interval =
    Arg.(
      value
      & opt (nonneg_float "stats interval") 0.0
      & info [ "stats-interval" ] ~docv:"SECS"
          ~doc:
            "Paint a live status line (execs/sec, queue depth, \
             valid inputs, coverage, cache hit rate, plateau age, hangs, \
             crashes) on stderr every SECS seconds. 0 (default) \
             disables it.")
  in
  let trace_sample =
    Arg.(
      value
      & opt (pos_int "sample interval") 1
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Record exec-level trace events and phase timings for 1 in N \
             search-loop iterations, chosen deterministically from the \
             execution count at the top of each iteration (so sampled traces \
             are reproducible and shard-merge deterministic). Structural \
             events (valid inputs, crashes, hangs) are always recorded. 1 \
             (default) records everything.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a crash-safe campaign checkpoint to FILE every \
             --checkpoint-every executions (atomic write-then-rename; a kill \
             mid-save leaves the previous checkpoint intact). With --resume, \
             also the file to resume from.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some (pos_int "checkpoint interval")) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Executions between checkpoints (default 1000).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume the campaign from the --checkpoint file instead of \
             starting fresh. Seed and budget come from the checkpoint; the \
             resumed run finds exactly the inputs the uninterrupted run would \
             have. Exits 2 if the checkpoint is missing, corrupted or from \
             another format version.")
  in
  let crashes_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "crashes" ] ~docv:"FILE"
          ~doc:
            "Write the deduplicated crash corpus as JSONL: one line per \
             (exception, crash-site) identity with its first triggering \
             input.")
  in
  let die_after =
    Arg.(
      value
      & opt (nonneg_int "die-after") 0
      & info [ "die-after" ] ~docv:"N"
          ~doc:
            "Kill the process (exit 137, as SIGKILL would) after N subject \
             executions in this process. Exists to exercise --resume: run \
             with --checkpoint and --die-after, then run again with --resume. \
             0 (default) disables it.")
  in
  let term =
    Term.(
      term_result
        (const run $ subject_arg $ tool_arg $ seed_arg $ executions_arg 20_000
         $ quiet $ no_incremental $ trace $ trace_sample $ stats_interval
         $ checkpoint $ checkpoint_every $ resume $ crashes_out $ die_after))
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Fuzz one subject with one tool.") term

(* campaign *)

let campaign_cmd =
  let run subject_name seed executions workers shards retries kill_worker trace out
      quiet =
    match find_subject subject_name with
    | Error e -> Error e
    | Ok subject ->
      let config =
        { Pdf_core.Pfuzzer.default_config with seed; max_executions = executions }
      in
      (match
         Pdf_eval.Dist.run_campaign ~workers ~shards ~retries ~trace:(trace <> None)
           ?kill_worker config subject
       with
       | exception Failure msg ->
         (* Replay rounds exhausted, or fork unavailable (a domain was
            spawned earlier in this process). Same distinctive status as
            an unusable checkpoint: not a CLI error, not a crash. *)
         Printf.eprintf "pfuzzer: campaign failed: %s\n%!" msg;
         exit 2
       | outcome ->
         (* One JSONL file, readable by trace-report: each worker's
            per-shard stream in shard order — the concatenation order is
            the plan order, not the scheduling order. *)
         Option.iter
           (fun path ->
             Pdf_util.Atomic_file.with_out path (fun oc ->
                 List.iter (output_string oc) outcome.shard_traces);
             Printf.printf "# campaign trace written to %s\n" path)
           trace;
         let r = outcome.result in
         if not quiet then
           List.iter (fun input -> Printf.printf "%S\n" input) r.valid_inputs;
         let budgets =
           String.concat ","
             (List.map
                (fun (sh : Pdf_eval.Dist.shard) -> string_of_int sh.shard_budget)
                outcome.o_plan.shards)
         in
         Printf.printf
           "# campaign on %s: %d shards (budgets %s) over %d workers, %d \
            executions in %.2fs, %d valid inputs, %.1f%% branch coverage, %d \
            hangs, %d crashes (%d unique)\n"
           subject.name
           (List.length outcome.o_plan.shards)
           budgets outcome.workers r.executions outcome.wall_clock_s
           (List.length r.valid_inputs)
           (Pdf_instr.Coverage.percent r.valid_coverage subject.registry)
           r.hangs r.crash_total
           (List.length r.crashes);
         Printf.printf
           "# workers: %s; %d frames accepted, %d rejected, %d shard replays\n"
           (String.concat ", "
              (List.map
                 (fun (w, s) -> Printf.sprintf "%d %s" w s)
                 outcome.worker_status))
           outcome.frames_accepted
           (List.length outcome.frames_rejected)
           outcome.replays;
         List.iter
           (fun (w, reason) ->
             Printf.printf "# worker %d rejected frame: %s\n" w reason)
           outcome.frames_rejected;
         (match out with
          | None -> ()
          | Some path ->
            (* Timing-free by construction: every field is a pure
               function of (subject, seed, executions, shards), so two
               campaigns with different worker counts must produce
               byte-identical files — CI diffs them directly. *)
            let digest =
              Digest.to_hex (Digest.string (Marshal.to_string r []))
            in
            let buf = Buffer.create 256 in
            let open Pdf_obs.Json in
            write_flat buf
              [
                ("subject", S subject.name);
                ("seed", I seed);
                ("executions", I r.executions);
                ("shards", I (List.length outcome.o_plan.shards));
                ("shard_budgets", S budgets);
                ("valid_inputs", I (List.length r.valid_inputs));
                ( "coverage_pct",
                  F (Pdf_instr.Coverage.percent r.valid_coverage subject.registry)
                );
                ("first_valid_at", I (Option.value r.first_valid_at ~default:(-1)));
                ("crash_identities", I (List.length r.crashes));
                ("crash_total", I r.crash_total);
                ("hangs", I r.hangs);
                ("result_digest", S digest);
              ];
            Buffer.add_char buf '\n';
            Pdf_util.Atomic_file.write_string path (Buffer.contents buf);
            Printf.printf "# campaign summary written to %s\n" path);
         Ok ())
  in
  let workers =
    Arg.(
      value
      & opt (pos_int "worker count") 2
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:
            "Worker processes to fork. The merged result is bit-identical \
             for every N — workers are concurrency, the shard plan is the \
             computation.")
  in
  let shards =
    Arg.(
      value
      & opt (pos_int "shard count") 4
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Shards in the campaign plan: independent fuzzing runs with \
             derived seeds and budget slices, dealt round-robin to the \
             workers. Changing S changes the campaign; changing --workers \
             does not.")
  in
  let retries =
    Arg.(
      value
      & opt (nonneg_int "retries") 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Replay rounds for shards whose worker died before sending a \
             final frame. Exits 2 when a shard is still missing after the \
             last round.")
  in
  let kill_worker =
    Arg.(
      value
      & opt (some (nonneg_int "worker id")) None
      & info [ "kill-worker" ] ~docv:"W"
          ~doc:
            "Chaos drill: worker W is SIGKILLed right after it is forked, \
             before it runs a shard. The campaign must still produce the \
             bit-identical merged result by replaying every shard W owned.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL trace: every shard's event stream, concatenated \
             in shard order. `trace-report' prints one report per shard.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write a one-line JSON campaign summary with no timing fields: \
             byte-identical across worker counts, so CI can diff the files \
             from --workers 1 and --workers 4 directly.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary lines.")
  in
  let term =
    Term.(
      term_result
        (const run $ subject_arg $ seed_arg $ executions_arg 20_000 $ workers
         $ shards $ retries $ kill_worker $ trace $ out $ quiet))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a distributed fuzzing campaign: a deterministic shard plan \
          executed by N forked workers, each sending one final sync frame \
          per shard to a merging coordinator. The result is bit-identical \
          for every worker count.")
    term

(* run *)

let run_cmd =
  let run subject_name input =
    match find_subject subject_name with
    | Error e -> Error e
    | Ok subject ->
      let run = Pdf_subjects.Subject.run subject input in
      Format.printf "%s: %a@." subject.name Pdf_instr.Runner.pp_verdict run.verdict;
      Format.printf "coverage: %.1f%% (%d outcomes), %d comparisons, eof-access: %b@."
        (Pdf_instr.Coverage.percent run.coverage subject.registry)
        (Pdf_instr.Coverage.cardinal run.coverage)
        (Array.length run.comparisons) run.eof_access;
      Array.iter
        (fun c -> Format.printf "  %a@." Pdf_instr.Comparison.pp c)
        run.comparisons;
      Ok ()
  in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT" ~doc:"Input string.")
  in
  let term = Term.(term_result (const run $ subject_arg $ input)) in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one input through an instrumented subject and dump the observations.")
    term

(* evaluate *)

let evaluate_cmd =
  let run budget seeds jobs retries trace =
    let seeds = if seeds = [] then [ 1 ] else seeds in
    let jobs = if jobs = 0 then Pdf_eval.Parallel.default_jobs () else jobs in
    let config = { Pdf_eval.Experiment.budget_units = budget; seeds; verbose = true } in
    let run_grid trace_oc =
      Pdf_eval.Experiment.run ~jobs ~retries ?trace:trace_oc config
        Pdf_subjects.Catalog.evaluation
    in
    let experiment =
      match trace with
      | None -> run_grid None
      | Some path ->
        Pdf_util.Atomic_file.with_out path (fun oc -> run_grid (Some oc))
    in
    Pdf_eval.Report.full Format.std_formatter experiment;
    Pdf_eval.Ablation.report Format.std_formatter ~budget_units:budget;
    match experiment.failures with
    | [] -> Ok ()
    | failures ->
      Error
        (`Msg
           (Printf.sprintf
              "%d evaluation cell(s) failed after %d retries (reported as \
               all-zero above)"
              (List.length failures) retries))
  in
  let budget =
    Arg.(
      value
      & opt (pos_int "budget") Pdf_eval.Experiment.default_config.budget_units
      & info [ "budget" ] ~docv:"UNITS"
          ~doc:
            "Virtual budget per (tool, subject): 1 unit per AFL execution, \
             100 per pFuzzer/KLEE execution. The ablations and the pipeline \
             derive their budgets from it.")
  in
  let seeds =
    Arg.(value & opt (list int) [ 1 ] & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Seeds; best run is reported.")
  in
  let jobs =
    Arg.(
      value
      & opt (nonneg_int "jobs") 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Evaluation-grid cells to run concurrently (OCaml domains). 1 is \
             strictly sequential; 0 means one worker per recommended domain. \
             Results are identical for every N.")
  in
  let retries =
    Arg.(
      value
      & opt (nonneg_int "retries") 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Times to re-run a grid cell whose execution raised before \
             marking it failed. A cell that exhausts its retries is reported \
             as all-zero and the command exits non-zero.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a merged JSONL trace of every grid cell, each segment \
             headed by a `cell' event. The merge order is the grid order, \
             independent of --jobs.")
  in
  let term =
    Term.(term_result (const run $ budget $ seeds $ jobs $ retries $ trace))
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:
         "Run the paper's full evaluation, then the ablations, the pipeline \
          and the instrumentation-overhead measurement, and print every \
          table and figure.")
    term

(* trace-report *)

let trace_report_cmd =
  let run file rows top csv_out chrome_out =
    match Pdf_obs.Trace.read_file file with
    | exception Sys_error m -> Error (`Msg m)
    | exception Failure m -> Error (`Msg (Printf.sprintf "%s: %s" file m))
    | events ->
      let analyses =
        Pdf_obs.Trace_report.report_events ~rows ~top Format.std_formatter events
      in
      (match csv_out with
       | None -> ()
       | Some path ->
         Pdf_util.Atomic_file.with_out path (fun oc ->
             List.iter
               (fun (a : Pdf_obs.Trace_report.t) ->
                 (match a.cell with
                  | Some (tool, subject, seed) ->
                    Printf.fprintf oc "# %s on %s, seed %d\n" tool subject seed
                  | None -> ());
                 output_string oc (Pdf_obs.Trace_report.csv a))
               analyses);
         Printf.printf "# coverage-over-time CSV written to %s\n" path);
      (match chrome_out with
       | None -> ()
       | Some path ->
         Pdf_util.Atomic_file.with_out path (fun oc ->
             let sink = Pdf_obs.Trace.chrome oc in
             List.iter (Pdf_obs.Trace.emit sink) events;
             Pdf_obs.Trace.close sink);
         Printf.printf "# Chrome trace written to %s\n" path);
      Ok ()
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL trace written by fuzz/evaluate/campaign --trace.")
  in
  let rows =
    Arg.(
      value
      & opt (pos_int "row count") 20
      & info [ "rows" ] ~docv:"N" ~doc:"Rows in the coverage-over-time table.")
  in
  let top =
    Arg.(
      value
      & opt (pos_int "top count") 10
      & info [ "top" ] ~docv:"N" ~doc:"Slowest executions to list.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Also export the full-resolution coverage-over-time curve as CSV.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Also convert the trace to Chrome trace_event format.")
  in
  let term =
    Term.(term_result (const run $ file $ rows $ top $ csv_out $ chrome_out))
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Replay a JSONL trace into coverage-over-time and valid-input tables, \
          a per-phase time breakdown and the slowest executions.")
    term

(* mine *)

let mine_cmd =
  let run subject_name seed executions samples =
    match find_subject subject_name with
    | Error e -> Error e
    | Ok subject ->
      let config =
        { Pdf_core.Pfuzzer.default_config with seed; max_executions = executions }
      in
      let result = Pdf_core.Pfuzzer.fuzz config subject in
      Printf.printf "# mined from %d valid inputs\n" (List.length result.valid_inputs);
      let grammar = Pdf_grammar.Miner.mine subject result.valid_inputs in
      Format.printf "%a" Pdf_grammar.Grammar.pp grammar;
      if samples > 0 then begin
        let rng = Pdf_util.Rng.make seed in
        let sentences = Pdf_grammar.Generator.generate_many rng samples grammar in
        let ok = List.filter (Pdf_subjects.Subject.accepts subject) sentences in
        Printf.printf "# %d/%d generated sentences accepted\n" (List.length ok) samples;
        List.iter (fun s -> Printf.printf "%S\n" s) sentences
      end;
      Ok ()
  in
  let samples =
    Arg.(
      value
      & opt (nonneg_int "sample count") 10
      & info [ "samples" ] ~docv:"N" ~doc:"Sentences to generate from the mined grammar.")
  in
  let term =
    Term.(
      term_result (const run $ subject_arg $ seed_arg $ executions_arg 5000 $ samples))
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:"Fuzz a subject, mine a grammar from the valid inputs (paper Section 7.4), and sample it.")
    term

(* pipeline *)

let pipeline_cmd =
  let run subject_name seed budget =
    match find_subject subject_name with
    | Error e -> Error e
    | Ok subject ->
      let result = Pdf_eval.Pipeline.run ~budget_units:budget ~seed subject in
      List.iter
        (fun (s : Pdf_eval.Pipeline.stage_report) ->
          Printf.printf "# %s: %d executions, %d new valid inputs, %.1f%% cumulative coverage\n"
            (Pdf_eval.Tool.display_name s.stage)
            s.executions s.new_valid s.coverage_after)
        result.stages;
      List.iter (fun input -> Printf.printf "%S\n" input) result.valid_inputs;
      Ok ()
  in
  let budget =
    Arg.(
      value
      & opt (pos_int "budget") 1_000_000
      & info [ "budget" ] ~docv:"UNITS" ~doc:"Total virtual budget.")
  in
  let term = Term.(term_result (const run $ subject_arg $ seed_arg $ budget)) in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Run the Section 6.2 tool chain: AFL, then pFuzzer, then KLEE, handing the corpus over.")
    term

(* check *)

let check_cmd =
  let run subject_name seed executions chaos =
    let subjects =
      match subject_name with
      | None -> Ok (Pdf_check.Harness.checked_subjects ())
      | Some name ->
        (match find_subject name with
         | Error e -> Error e
         | Ok subject -> Ok [ subject ])
    in
    match subjects with
    | Error e -> Error e
    | Ok subjects ->
      let outcome = Pdf_check.Harness.run ~execs:executions ~seed ~chaos subjects in
      Format.printf "%a" Pdf_check.Harness.pp outcome;
      if Pdf_check.Harness.ok outcome then Ok ()
      else Error (`Msg "correctness checks failed")
  in
  let subject =
    let doc =
      "Subject to check (defaults to every subject with a reference oracle)."
    in
    Arg.(value & opt (some string) None & info [ "s"; "subject" ] ~docv:"NAME" ~doc)
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Also run the chaos drills: seeded fault plans (injected \
             exceptions, fuel starvation, slowdowns, worker death) must \
             degrade the campaign gracefully, never corrupt it.")
  in
  let term =
    Term.(
      term_result (const run $ subject $ seed_arg $ executions_arg 2000 $ chaos))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the correctness harness: differential fuzzing against reference \
          oracles (with shrinking), fuzzer invariant checks, and (with \
          --chaos) fault-injection drills.")
    term

(* subjects *)

let subjects_cmd =
  let run () =
    List.iter
      (fun (s : Pdf_subjects.Subject.t) ->
        Printf.printf "%-8s %s (%d sites, %d tokens)\n" s.name s.description
          (Pdf_instr.Site.site_count s.registry)
          (List.length s.tokens))
      Pdf_subjects.Catalog.all
  in
  Cmd.v (Cmd.info "subjects" ~doc:"List available subjects.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "pfuzzer" ~version:"1.0.0"
      ~doc:"Parser-directed fuzzing (Mathis et al., PLDI 2019) in OCaml"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fuzz_cmd;
            campaign_cmd;
            run_cmd;
            evaluate_cmd;
            trace_report_cmd;
            mine_cmd;
            pipeline_cmd;
            check_cmd;
            subjects_cmd;
          ]))
