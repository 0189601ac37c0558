(* Whole-campaign benchmark: complete pFuzzer campaigns driven from
   outside the library, through its public entry points only
   ([Pfuzzer.fuzz], [Subject.run]/[exec_journaled], the [Runner]
   snapshot/resume/[Cache] functions, [Dist.run_campaign]/[reference]/
   [Frame] and [Observer.create]).

   run.py builds this program under the release profile and runs it,
   from the repository root, once per benchmark run. It prints one record
   per line on stdout:

     env <key> <value>                  run environment stamp
     ready <ns>                         monotonic clock at the first campaign
     metric <name> <value> <unit> <n>   a measurement over n samples
     absent <name> <reason>             a metric this workload cannot measure
     check FAIL <what>                  a failed result check
     digest <key> <seed> <hex>          result digest of an unrecorded seed
     spans <file>                       where a traced run wrote its spans
     tally <attempted> <failed>         operations attempted and failed

   Modes:

     main.exe setup   --workload W
     main.exe run     --workload W --seed N --seconds S
     main.exe trace   --workload W --seed N --seconds S
     main.exe digests

   [setup] stops where the first campaign would start; run.py times it
   from process start. [run] measures the end-to-end metrics with no
   tracing, each campaign's wall time at nominal host speed (see "Host
   speed" below). [trace] measures the per-layer metrics: it times calls into
   each layer's public functions on the campaigns' own recorded streams,
   keeps those spans in memory and writes them to [spans_dir] at the
   end. Every campaign's result is checked against [digests_file], which
   must exist; [digests] prints that file's contents afresh. *)

module Pfuzzer = Pdf_core.Pfuzzer
module Heuristic = Pdf_core.Heuristic
module Candidate = Pdf_core.Candidate
module Runner = Pdf_instr.Runner
module Comparison = Pdf_instr.Comparison
module Coverage = Pdf_instr.Coverage
module Hits = Pdf_instr.Hits
module Subject = Pdf_subjects.Subject
module Catalog = Pdf_subjects.Catalog
module Pqueue = Pdf_util.Pqueue
module Rng = Pdf_util.Rng
module Dist = Pdf_eval.Dist
module Observer = Pdf_obs.Observer
module Trace = Pdf_obs.Trace
module Metrics = Pdf_obs.Metrics
module Oracle = Pdf_check.Oracle

let now = Pdf_obs.Clock.now_ns

(* {1 Campaign settings} *)

(* The paper's per-cell pFuzzer budget: [Experiment.default_config]'s 2M
   execution units divided by pFuzzer's cost of 100 units. *)
let budget = 20_000
let config seed = { Pfuzzer.default_config with seed; max_executions = budget }

(* The fleet: 8 shards of one campaign budget each, on at most two
   worker processes and never more than the host has cores. *)
let shards = 8

let fleet_config seed =
  { Pfuzzer.default_config with seed; max_executions = shards * budget }

let workers = min 2 (Domain.recommended_domain_count ())

(* [Dist.run_campaign]'s default progress-frame cadence. *)
let frame_every = 500

(* Observer sampling of the always-on tracing mode. *)
let sample = 100

(* A gap between two executions longer than this is a stall. *)
let stall_ns = 100_000

(* The traced run replays one recorded execution in this many. *)
let replay_every = 50

(* Recorded result digests, and where a traced run writes its spans;
   both relative to the repository root. *)
let digests_file = "perfbench/digests.txt"
let digest_seeds = 64
let spans_dir = ".bench_build/perfbench-out"

(* {1 Workloads} *)

type kind = Plain | Observed | Fleet

type workload = {
  name : string;
  subjects : string list;
  kind : kind;
  round_s : float;
      (* seconds one round (one campaign per subject, with its probe and
         checks) took on a 2-vCPU Xeon VM in one of its slow spells, so
         that no run takes much longer than asked; the number of rounds
         follows from it and the run's length, so a run's work is a pure
         function of its arguments. The fleet's round is one 8-shard
         campaign, its probes and [Dist.reference]. *)
}

let workloads =
  [
    {
      name = "machine-form";
      subjects = [ "paren"; "ini"; "csv"; "json"; "expr" ];
      kind = Plain;
      round_s = 1.1;
    };
    { name = "direct-style"; subjects = [ "tinyc"; "mjs" ]; kind = Plain; round_s = 0.8 };
    { name = "observed"; subjects = [ "json"; "tinyc" ]; kind = Observed; round_s = 0.55 };
    { name = "fleet"; subjects = [ "json" ]; kind = Fleet; round_s = 9.0 };
  ]

(* Rounds (seeds), so that a run takes about [seconds]. *)
let rounds w seconds = max 1 (int_of_float (Float.round (float_of_int seconds /. w.round_s)))

(* {1 Output} *)

let metric name value unit n =
  Printf.printf "metric %s %.17g %s %d\n" name value unit n

let absent name reason = Printf.printf "absent %s %s\n" name reason
let env key value = Printf.printf "env %s %s\n" key value

(* {1 Statistics} *)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* A fixed ALU loop: the host's speed at this moment, stamped at the start
   and end of every run so that host throttling can be told from a
   regression. Median of three. *)
let spin_ns () =
  let once () =
    let t0 = now () in
    let x = ref 0x2545F491 in
    for _ = 1 to 10_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    ignore (Sys.opaque_identity !x);
    float_of_int (now () - t0)
  in
  median [ once (); once (); once () ]

(* {1 Host speed}

   This host's speed drifts. For tens of seconds at a time other tenants
   contend for its caches and memory, and a campaign then runs up to 1.7x
   slower while [spin_ns]'s ALU loop slows by a tenth. So a probe that
   shares no code or data with the program runs before every timed
   campaign: it allocates short-lived blocks, as a campaign does, and none
   survive a minor collection, so it leaves the major heap alone. Of the
   probes tried (ALU, sequential and random memory passes, pointer chasing,
   allocation) it alone slowed about in proportion to single-process
   campaigns in both calm and slow spells; the fleet's workers run on
   other cores than the probe, and it steadies them less. Each campaign's
   wall time is scaled by [probe_nominal_ns] over the median probe time of
   the campaigns around it, so that [execs_per_s] reads executions per
   second at the host's calm speed. The probe shares the runtime's minor
   heap with the program, so a change of the minor heap size moves it
   too. *)

let probe_ns () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 1_000_000 do
    let t = Sys.opaque_identity (i, [ i; i + 1; i + 2; i + 3 ]) in
    acc := !acc + fst t
  done;
  ignore (Sys.opaque_identity !acc);
  now () - t0

(* The probe's time on this host when calm (a 2-vCPU Xeon VM); it only
   sets the scale of the figures. *)
let probe_nominal_ns = 8e6

(* A campaign's host speed: the median probe over this many campaigns on
   either side of it. *)
let probe_window = 8

(* [runs]: a run's campaigns in run order, each as the probe times taken
   before it and its wall time. Returns their wall times at nominal host
   speed, in ns. *)
let at_nominal_speed runs =
  let probes = Array.of_list (List.map fst runs) in
  let n = Array.length probes in
  List.mapi
    (fun i (_, wall) ->
      let lo = max 0 (i - probe_window) and hi = min (n - 1) (i + probe_window) in
      let near = List.concat (Array.to_list (Array.sub probes lo (hi - lo + 1))) in
      float_of_int wall *. probe_nominal_ns /. median (List.map float_of_int near))
    runs

(* {1 Result checks}

   Every campaign gets its checks; a failed check counts as a failed
   operation and never aborts the run. *)

let attempted = ref 0
let failed = ref 0

let tally ~attempts ~failures =
  attempted := !attempted + attempts;
  failed := !failed + failures

(* Recorded digests, keyed by (subject or "fleet-json", seed). *)
let digests : (string * int, string) Hashtbl.t = Hashtbl.create 512

let load_digests () =
  if not (Sys.file_exists digests_file) then begin
    Printf.eprintf "no recorded digests at %s: run from the repository root\n" digests_file;
    exit 2
  end;
  In_channel.with_open_text digests_file (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.split_on_char ' ' (String.trim line) with
           | [ key; seed; hex ] when key.[0] <> '#' ->
             Hashtbl.replace digests (key, int_of_string seed) hex
           | _ -> ());
          loop ()
      in
      loop ())

(* The part of a result [Pdf_check.Invariants.results_equal] compares:
   valid inputs, coverage, hit-counts, counters, hangs and crashes, but
   no cache accounting or timing. *)
let result_digest (r : Pfuzzer.result) =
  let projection =
    ( r.valid_inputs,
      Coverage.to_list r.valid_coverage,
      Hits.to_list r.hits,
      [
        r.executions; r.candidates_created; r.queue_peak;
        Option.value r.first_valid_at ~default:(-1);
        r.dedupe_resets; r.path_resets; r.hangs; r.crash_total;
      ],
      r.crashes )
  in
  Digest.to_hex (Digest.string (Marshal.to_string projection []))

let fail key seed what = Printf.printf "check FAIL %s seed %d: %s\n" key seed what

(* Digest against the recorded table (or print it, for a seed the table
   lacks), execution count, and the independent oracle of [subject], when
   it has one, on every valid input. *)
let check_result ~key ~subject ~seed ~execs (r : Pfuzzer.result) =
  let ok = ref true in
  let bad what =
    ok := false;
    fail key seed what
  in
  if r.executions <> execs then
    bad (Printf.sprintf "%d executions, expected %d" r.executions execs);
  let d = result_digest r in
  (match Hashtbl.find_opt digests (key, seed) with
   | Some recorded when recorded <> d ->
     bad (Printf.sprintf "result digest %s, recorded %s" d recorded)
   | Some _ -> ()
   | None -> Printf.printf "digest %s %d %s\n" key seed d);
  (match Oracle.find subject with
   | None -> ()
   | Some o ->
     List.iter
       (fun v ->
         if not (o.Oracle.accepts v) then
           bad (Printf.sprintf "oracle rejects valid input %S" v))
       r.valid_inputs);
  !ok

(* {1 Single-process campaigns} *)

type summary = {
  subject : string;
  seed : int;
  wall_ns : int;
  words : float;  (* minor words allocated by the campaign *)
  execs : int;
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  chars_saved : int;
  candidates : int;
  valid : int;
  queue_peak : int;
  coverage : Coverage.t;  (* valid coverage, the replay's vBr *)
}

(* One timed campaign plus its checks (outside the timed window).
   [None] when [fuzz] raised. *)
let campaign ?obs ?on_execution ?on_queue_event (s : Subject.t) seed =
  let cfg = config seed in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  match Pfuzzer.fuzz ?obs ?on_execution ?on_queue_event cfg s with
  | exception e ->
    fail s.name seed ("raised " ^ Printexc.to_string e);
    tally ~attempts:1 ~failures:1;
    None
  | r ->
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let ok = check_result ~key:s.name ~subject:s.name ~seed ~execs:budget r in
    tally ~attempts:1 ~failures:(if ok then 0 else 1);
    Some
      {
        subject = s.name;
        seed;
        wall_ns = t1 - t0;
        words = w1 -. w0;
        execs = r.executions;
        cache_hits = r.cache.hits;
        cache_misses = r.cache.misses;
        evictions = r.cache.evictions;
        chars_saved = r.cache.chars_saved;
        candidates = r.candidates_created;
        valid = List.length r.valid_inputs;
        queue_peak = r.queue_peak;
        coverage = r.valid_coverage;
      }

(* Rounds × subjects, round j with seed [seed + j], round-major so host
   drift spreads over every subject alike. [f subject seed] runs one
   campaign. Results in run order. *)
let sweep w ~seed ~rounds f =
  let subjects = List.map Catalog.find w.subjects in
  List.concat_map
    (fun j -> List.filter_map (fun s -> f s (seed + j)) subjects)
    (List.init rounds Fun.id)

(* One timed campaign after its host probe; see [at_nominal_speed]. *)
let probed f = let probe = probe_ns () in Option.map (fun x -> (probe, x)) (f ())

(* The campaigns of [probed] runs, with wall times at nominal host speed. *)
let at_nominal runs =
  List.map2
    (fun (_, x) wall -> { x with wall_ns = int_of_float wall })
    runs
    (at_nominal_speed (List.map (fun (p, x) -> ([ p ], x.wall_ns)) runs))

let per_subject w (xs : summary list) =
  List.map (fun name -> (name, List.filter (fun x -> x.subject = name) xs)) w.subjects

let eps xs = List.map (fun x -> float_of_int x.execs /. (float_of_int x.wall_ns /. 1e9)) xs
let words_per_exec xs = List.map (fun x -> x.words /. float_of_int x.execs) xs

(* Per subject the median over its campaigns; across subjects the
   geometric mean, so that neither one heavy subject nor one unusual
   seed carries the workload's figure. *)
let per_workload f w xs =
  geomean
    (List.filter_map
       (fun (_, cs) -> match cs with [] -> None | _ -> Some (median (f cs)))
       (per_subject w xs))

let workload_eps = per_workload eps

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* The observed workload's observer: sampled trace events into an
   in-memory JSONL sink, plus a metrics registry. Returns the observer
   and the sink's contents accessor. *)
let observer () =
  let sink, contents = Trace.buffer () in
  (Observer.create ~sink ~sample ~metrics:(Metrics.create ()) (), contents)

(* {1 Fleet campaigns} *)

type fleet_summary = {
  f_seed : int;
  f_wall_ns : int;
  f_words : float;
  f_execs : int;
  f_frames : int;
  f_replays : int;
  f_ref_ns : int;  (* wall time of [Dist.reference] on the same plan *)
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* [Marshal] bytes of [Dist.reference] on the plan, computed in a child
   process so that the coordinator's heap stays the coordinator's. *)
let reference_bytes cfg json =
  flush stdout;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close rd;
    Unix.close wr;
    Error ("fork: " ^ Unix.error_message e)
  | 0 -> (
    (* The child must never return into the parent's code. *)
    try
      Unix.close rd;
      let s = Marshal.to_string (Dist.reference ~shards cfg json) [] in
      let oc = Unix.out_channel_of_descr wr in
      output_string oc s;
      close_out oc;
      Unix._exit 0
    with _ -> Unix._exit 1)
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = In_channel.input_all ic in
    close_in ic;
    (match snd (Unix.waitpid [] pid) with
     | Unix.WEXITED 0 -> Ok s
     | _ -> Error "the reference process failed")

let fleet_campaign (json : Subject.t) seed =
  let cfg = fleet_config seed in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  match Dist.run_campaign ~workers ~shards cfg json with
  | exception e ->
    fail "fleet-json" seed ("raised " ^ Printexc.to_string e);
    tally ~attempts:shards ~failures:shards;
    None
  | o ->
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let r0 = now () in
    let reference = reference_bytes cfg json in
    let ref_ns = now () - r0 in
    let identical = reference = Ok (Marshal.to_string o.result []) in
    if not identical then fail "fleet-json" seed "merged result differs from Dist.reference";
    let ok =
      check_result ~key:"fleet-json" ~subject:json.name ~seed ~execs:(shards * budget)
        o.result
      && identical
    in
    (* A replayed shard is a failed attempt of that shard. *)
    tally ~attempts:(shards + o.replays)
      ~failures:(o.replays + if ok then 0 else shards);
    Some
      {
        f_seed = seed;
        f_wall_ns = t1 - t0;
        f_words = w1 -. w0;
        f_execs = o.result.executions;
        f_frames = o.frames_accepted;
        f_replays = o.replays;
        f_ref_ns = ref_ns;
      }

(* Probes per fleet campaign: a fleet run has only a few campaigns. *)
let fleet_probes = 9

(* One fleet campaign per round, each after [fleet_probes] host probes. *)
let fleet_sweep json ~seed ~rounds =
  List.filter_map
    (fun j ->
      let probes = List.init fleet_probes (fun _ -> probe_ns ()) in
      Option.map (fun f -> (probes, f)) (fleet_campaign json (seed + j)))
    (List.init rounds Fun.id)

let fleet_eps fs =
  median (List.map (fun f -> float_of_int f.f_execs /. (float_of_int f.f_wall_ns /. 1e9)) fs)

(* {1 Environment stamp} *)

let stamp w ~seed ~rounds =
  env "workload" w.name;
  env "seed" (string_of_int seed);
  env "rounds" (string_of_int rounds);
  env "budget" (string_of_int budget);
  env "profile" Build_profile.profile;
  env "nproc" (string_of_int (Domain.recommended_domain_count ()));
  env "workers" (string_of_int workers);
  env "ocaml" Sys.ocaml_version

(* {1 End-to-end run} *)

let run_e2e w ~seed ~seconds =
  let rounds = rounds w seconds in
  stamp w ~seed ~rounds;
  let spin0 = spin_ns () in
  Printf.printf "ready %d\n" (now ());
  let execs_per_s, words, samples, probes =
    match w.kind with
    | Plain | Observed ->
      let runs =
        sweep w ~seed ~rounds (fun s seed ->
            let obs = if w.kind = Observed then Some (fst (observer ())) else None in
            probed (fun () -> campaign ?obs s seed))
      in
      let xs = at_nominal runs in
      (workload_eps w xs, per_workload words_per_exec w xs, List.length xs, List.map fst runs)
    | Fleet ->
      let runs = fleet_sweep (Catalog.find "json") ~seed ~rounds in
      let fs =
        List.map2
          (fun (_, f) wall -> { f with f_wall_ns = int_of_float wall })
          runs
          (at_nominal_speed (List.map (fun (p, f) -> (p, f.f_wall_ns)) runs))
      in
      (* The coordinator's allocation over the fleet's executions. *)
      ( fleet_eps fs,
        List.fold_left (fun acc f -> acc +. f.f_words) 0.
          fs /. float_of_int (max 1 (sum (fun f -> f.f_execs) fs)),
        List.length fs,
        List.concat_map fst runs )
  in
  let spin1 = spin_ns () in
  env "spin_start_ns" (Printf.sprintf "%.0f" spin0);
  env "spin_end_ns" (Printf.sprintf "%.0f" spin1);
  env "probe_ns" (Printf.sprintf "%.0f" (median (List.map float_of_int probes)));
  metric "execs_per_s" execs_per_s "exec/s" samples;
  metric "minor_words_per_exec" words "words" samples;
  metric "peak_heap_mb" (peak_heap_mb ()) "MB" 1

(* {1 Traced run} *)

(* Spans: name, start, end, parent span, campaign id; five ints each in
   one growable array, written out when the run ends. Queue pushes and
   pops (tens of thousands per campaign) are timed individually but kept
   as per-campaign sums rather than spans. *)
module Spans = struct
  let names = [| "campaign"; "replay"; "exec.cold"; "search.derive"; "cache.snapshot";
                 "cache.resume"; "search.score"; "search.hits"; "queue.truncate";
                 "stall"; "fleet.encode"; "fleet.decode" |]

  let campaign = 0
  let replay = 1
  let cold = 2
  let derive = 3
  let snapshot = 4
  let resume = 5
  let score = 6
  let hits = 7
  let truncate = 8
  let stall = 9
  let encode = 10
  let decode = 11

  (* Empty until the first span, so untraced runs carry none of it. *)
  let data = ref [||]
  let count = ref 0

  let add name ~start ~stop ~parent ~camp =
    if 5 * (!count + 1) > Array.length !data then begin
      let d = Array.make (max (5 * 65_536) (2 * Array.length !data)) 0 in
      Array.blit !data 0 d 0 (5 * !count);
      data := d
    end;
    let b = 5 * !count in
    let a = !data in
    a.(b) <- name;
    a.(b + 1) <- start;
    a.(b + 2) <- stop;
    a.(b + 3) <- parent;
    a.(b + 4) <- camp;
    incr count;
    !count - 1

  let set_stop i stop = !data.((5 * i) + 2) <- stop

  (* Campaign ids: (pass, subject, seed), in creation order. *)
  let campaigns = ref []

  let new_campaign pass subject seed =
    let id = List.length !campaigns in
    campaigns := (pass, subject, seed) :: !campaigns;
    id

  let write path =
    Out_channel.with_open_text path (fun oc ->
        List.iteri
          (fun id (pass, subject, seed) ->
            Printf.fprintf oc "# campaign %d %s %s %d\n" id pass subject seed)
          (List.rev !campaigns);
        Printf.fprintf oc "id\tname\tstart_ns\tend_ns\tparent\tcampaign\n";
        let a = !data in
        for i = 0 to !count - 1 do
          let b = 5 * i in
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(a.(b)) a.(b + 1)
            a.(b + 2) a.(b + 3) a.(b + 4)
        done)
end

(* Per-(layer call, subject) sums of timed calls: calls, timed
   intervals, ns, words. *)
type acc = { mutable n : int; mutable pairs : int; mutable ns : int; mutable words : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 64

let acc key =
  match Hashtbl.find_opt accs key with
  | Some a -> a
  | None ->
    let a = { n = 0; pairs = 0; ns = 0; words = 0. } in
    Hashtbl.replace accs key a;
    a

(* One timed interval covering [calls] calls. *)
let record ?(calls = 1) ?(words = 0.) key dt =
  let a = acc key in
  a.n <- a.n + calls;
  a.pairs <- a.pairs + 1;
  a.ns <- a.ns + dt;
  a.words <- a.words +. words

(* The cost of one [now ()] pair, subtracted from every timed interval. *)
let clock_ns =
  lazy
    (let xs =
       List.init 2001 (fun _ ->
           let t0 = now () in
           let t1 = now () in
           float_of_int (t1 - t0))
     in
     median xs)

let mean_of a =
  if a.n = 0 then None
  else
    let clock = float_of_int a.pairs *. Lazy.force clock_ns in
    Some (Float.max 0. ((float_of_int a.ns -. clock) /. float_of_int a.n), a.n)

let mean_ns key = Option.bind (Hashtbl.find_opt accs key) mean_of

let heuristic = Pfuzzer.default_config.heuristic

(* Replay one recorded execution through the layers' public functions:
   a cold execution, the search's derivations, a snapshot at the
   substitution index and a resume of a child there, the heuristic score
   of every child, and the hit-count update. *)
let replay_one (s : Subject.t) ~vbr ~rng ~hits ~camp input =
  let parent = Spans.add Spans.replay ~start:(now ()) ~stop:0 ~parent:(-1) ~camp in
  let span name key t0 t1 ?calls ?words () =
    ignore (Spans.add name ~start:t0 ~stop:t1 ~parent ~camp);
    record ?calls ?words key (t1 - t0)
  in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let run, journal =
    match s.machine with
    | Some m ->
      let run, journal = Subject.exec_journaled s m input in
      (run, Some journal)
    | None -> (Subject.run s input, None)
  in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  span Spans.cold ("exec.cold." ^ s.name) t0 t1 ~words:(w1 -. w0) ();
  let t2 = now () in
  let derived =
    match Runner.substitution_index run with
    | None -> None
    | Some index ->
      let cov = Runner.coverage_up_to run ~index in
      let comps = Runner.comparisons_at run ~index in
      let avg = Runner.avg_stack_of_last_two run in
      let path = Runner.path_hash run in
      let repls = List.concat_map (Comparison.replacements rng) comps in
      Some (index, cov, avg, path, repls)
  in
  let t3 = now () in
  span Spans.derive "search.derive" t2 t3 ();
  (match derived with
   | None -> ()
   | Some (index, cov, avg, path, repls) ->
     let index = min index (String.length input) in
     let prefix = String.sub input 0 index in
     (match journal with
      | Some j when index > 0 ->
        let t4 = now () in
        let snap = Runner.snapshot_at j index in
        let t5 = now () in
        span Spans.snapshot ("cache.snapshot." ^ s.name) t4 t5 ();
        (match snap with
         | None -> ()
         | Some snap ->
           let child = match repls with r :: _ -> prefix ^ r | [] -> prefix in
           let t6 = now () in
           ignore (Sys.opaque_identity (Runner.resume snap child));
           let t7 = now () in
           span Spans.resume ("cache.resume." ^ s.name) t6 t7 ())
      | _ -> ());
     let children =
       List.map
         (fun repl ->
           {
             Candidate.data = prefix ^ repl;
             repl;
             parents = 1;
             parent_coverage = cov;
             avg_stack = avg;
             path_count = path land 7;
           })
         repls
     in
     if children <> [] then begin
       (* One span over every child's score: a single call is too short
          to time alone. *)
       let t8 = now () in
       List.iter
         (fun c -> ignore (Sys.opaque_identity (Heuristic.score heuristic ~vbr c)))
         children;
       let t9 = now () in
       span Spans.score "search.score" t8 t9 ~calls:(List.length children) ()
     end);
  let t10 = now () in
  Hits.record hits run.touched;
  let t11 = now () in
  span Spans.hits "search.hits" t10 t11 ();
  Spans.set_stop parent t11

(* Gap pass: timestamp every [on_execution] callback and keep one input
   in [replay_every] for the replay. Returns the campaign summary, the
   callback timestamps with the campaign's start, and the kept inputs. *)
type gapped = {
  g : summary;
  camp : int;
  start : int;
  stamps : int array;
  inputs : string list;
  len_sum : int;
}

let gap_campaign ?obs (s : Subject.t) seed =
  let camp = Spans.new_campaign "gap" s.name seed in
  let stamps = Array.make budget 0 in
  let n = ref 0 in
  let kept = ref [] in
  let len_sum = ref 0 in
  let on_execution (run : Runner.run) =
    let t = now () in
    if !n < budget then stamps.(!n) <- t;
    incr n;
    len_sum := !len_sum + String.length run.input;
    if !n mod replay_every = 0 then kept := run.input :: !kept
  in
  let start = now () in
  match campaign ?obs ~on_execution s seed with
  | None -> None
  | Some g ->
    ignore (Spans.add Spans.campaign ~start ~stop:(start + g.wall_ns) ~parent:(-1) ~camp);
    Some
      {
        g;
        camp;
        start;
        stamps = Array.sub stamps 0 (min !n budget);
        inputs = List.rev !kept;
        len_sum = !len_sum;
      }

(* Queue pass: replay the fuzzer's push/pop/truncate stream against a
   fresh [Pqueue], timing each operation. Its own campaign, because
   listening to queue events makes the fuzzer snapshot the whole queue at
   every rerank and truncation. *)
let queue_campaign (s : Subject.t) seed =
  let camp = Spans.new_campaign "queue" s.name seed in
  let shadow = Pqueue.create () in
  let bound = Pfuzzer.default_config.queue_bound in
  let ops = acc "queue.op" in
  let op t0 t1 =
    ops.n <- ops.n + 1;
    ops.pairs <- ops.pairs + 1;
    ops.ns <- ops.ns + (t1 - t0)
  in
  let on_queue_event = function
    | Pfuzzer.Pushed (prio, data) ->
      let t0 = now () in
      Pqueue.push shadow prio data;
      op t0 (now ())
    | Pfuzzer.Popped _ ->
      let t0 = now () in
      ignore (Sys.opaque_identity (Pqueue.pop shadow));
      op t0 (now ())
    | Pfuzzer.Reranked _ -> ()
    | Pfuzzer.Truncated _ ->
      let t0 = now () in
      Pqueue.drop_worst shadow bound;
      let t1 = now () in
      ignore (Spans.add Spans.truncate ~start:t0 ~stop:t1 ~parent:(-1) ~camp);
      record "queue.truncate" (t1 - t0)
  in
  campaign ~on_queue_event s seed

(* The per-layer metric catalogue with units, in output order; run.py
   checks it against BENCHMARK.json's per_layer list. *)
let all_subjects = [ "paren"; "ini"; "csv"; "json"; "expr"; "tinyc"; "mjs" ]
let machine_subjects = [ "paren"; "ini"; "csv"; "json"; "expr" ]

let per_layer =
  let each subjects f = List.map f subjects in
  List.concat
    [
      each all_subjects (fun s -> ("exec." ^ s ^ ".cold_ns", "ns"));
      each all_subjects (fun s -> ("exec." ^ s ^ ".cold_words", "words"));
      [ ("exec.input_len", "chars") ];
      each machine_subjects (fun s -> ("cache." ^ s ^ ".hit_ratio", "ratio"));
      [
        ("cache.resume_ns", "ns");
        ("cache.snapshot_ns", "ns");
        ("cache.evictions_per_exec", "evict/exec");
        ("cache.chars_saved_per_exec", "chars/exec");
      ];
      each all_subjects (fun s -> ("search." ^ s ^ ".overhead_ns", "ns"));
      each all_subjects (fun s -> ("search." ^ s ^ ".stall_frac", "ratio"));
      [
        ("search.derive_ns", "ns");
        ("search.score_ns", "ns");
        ("search.hits_ns", "ns");
        ("search.gap_ns_p50", "ns");
        ("search.gap_ns_p99", "ns");
        ("search.stalls", "count");
        ("search.candidates_per_exec", "cand/exec");
        ("search.valid_per_kexec", "valid/kexec");
        ("queue.op_ns", "ns");
        ("queue.truncate_ns", "ns");
        ("queue.peak", "entries");
        ("queue.truncations", "count");
        ("gc.promoted_words_per_exec", "words");
        ("gc.major_collections", "count");
        ("obs.events_per_exec", "events/exec");
        ("obs.bytes_per_exec", "B/exec");
        ("obs.phase_cover", "ratio");
        ("obs.overhead_frac", "ratio");
        ("fleet.frames", "count");
        ("fleet.frame_bytes", "B");
        ("fleet.capture_ns", "ns");
        ("fleet.encode_ns", "ns");
        ("fleet.decode_ns", "ns");
        ("fleet.scaling", "ratio");
        ("fleet.replays", "count");
        ("host.spin_ns", "ns");
        ("host.probe_ns", "ns");
        ("trace.overhead_frac", "ratio");
        ("trace.execs_per_s", "exec/s");
      ];
    ]

(* Measured per-layer values: name -> (value, samples), or the reason
   it is absent. *)
let layer : (string, (float * int, string) result) Hashtbl.t = Hashtbl.create 128
let set name value n = Hashtbl.replace layer name (Ok (value, n))
let set_absent name reason = Hashtbl.replace layer name (Error reason)

let set_mean name key =
  match mean_ns key with Some (v, n) -> set name v n | None -> ()

(* The search, exec and cache layers of single-process campaigns. *)
let trace_single w ~seed ~rounds =
  let observe = w.kind = Observed in
  let subjects = List.map Catalog.find w.subjects in
  let obs_stats = ref [] in
  let promoted = ref 0. and majors = ref 0 in
  (* Plain: the end-to-end campaigns again, for the per-subject
     throughput, cache and search counters, and the collector. Bare (when
     observed): the same with no observer. Gap: see [gap_campaign]. The
     three run back to back for each subject and seed, so that host drift
     weighs on them alike. *)
  let plain_one s seed =
    let o = if observe then Some (observer ()) else None in
    let g0 = Gc.quick_stat () in
    let r = campaign ?obs:(Option.map fst o) s seed in
    let g1 = Gc.quick_stat () in
    promoted := !promoted +. (g1.promoted_words -. g0.promoted_words);
    majors := !majors + (g1.major_collections - g0.major_collections);
    (match (o, r) with
     | Some (o, contents), Some x ->
       let text = contents () in
       let events = List.length (String.split_on_char '\n' text) - 1 in
       let phase_ns =
         List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Observer.phase_totals o)
       in
       obs_stats := (x, events, String.length text, phase_ns) :: !obs_stats
     | _ -> ());
    r
  in
  let probes = ref [] in
  let runs =
    sweep w ~seed ~rounds (fun s seed ->
        probes := probe_ns () :: !probes;
        let plain = plain_one s seed in
        let bare = if observe then campaign s seed else None in
        let obs = if observe then Some (fst (observer ())) else None in
        match (plain, gap_campaign ?obs s seed) with
        | Some p, Some g -> Some (p, bare, g)
        | _ -> None)
  in
  let probe = median (List.map float_of_int !probes) in
  set "host.probe_ns" probe (List.length !probes);
  let plain = List.map (fun (p, _, _) -> p) runs in
  let bare = List.filter_map (fun (_, b, _) -> b) runs in
  let gapped = List.map (fun (_, _, g) -> g) runs in
  let plain_eps = workload_eps w plain in
  let execs = sum (fun x -> x.execs) plain in
  let ncamp = List.length plain in
  set "gc.promoted_words_per_exec" (!promoted /. float_of_int (max 1 execs)) ncamp;
  set "gc.major_collections" (float_of_int !majors /. float_of_int (max 1 ncamp)) ncamp;
  set "search.candidates_per_exec" (ratio (sum (fun x -> x.candidates) plain) execs) ncamp;
  set "search.valid_per_kexec" (1000. *. ratio (sum (fun x -> x.valid) plain) execs) ncamp;
  set "queue.peak" (float_of_int (List.fold_left (fun m x -> max m x.queue_peak) 0 plain)) ncamp;
  let machine = List.filter (fun (s : Subject.t) -> s.machine <> None) subjects in
  let on_machine = List.filter (fun x -> List.mem x.subject machine_subjects) plain in
  let mexecs = sum (fun x -> x.execs) on_machine in
  if machine = [] then
    List.iter
      (fun m -> set_absent m "no machine-form subject in this workload, so no prefix cache")
      [ "cache.evictions_per_exec"; "cache.chars_saved_per_exec"; "cache.resume_ns";
        "cache.snapshot_ns" ]
  else begin
    set "cache.evictions_per_exec" (ratio (sum (fun x -> x.evictions) on_machine) mexecs)
      (List.length on_machine);
    set "cache.chars_saved_per_exec" (ratio (sum (fun x -> x.chars_saved) on_machine) mexecs)
      (List.length on_machine)
  end;
  (* The observer, against the same campaigns with none attached. *)
  (if observe then begin
     let stats = !obs_stats in
     let oexecs = sum (fun (x, _, _, _) -> x.execs) stats in
     set "obs.events_per_exec" (ratio (sum (fun (_, e, _, _) -> e) stats) oexecs) ncamp;
     set "obs.bytes_per_exec" (ratio (sum (fun (_, _, b, _) -> b) stats) oexecs) ncamp;
     set "obs.phase_cover"
       (float_of_int (sample * sum (fun (_, _, _, p) -> p) stats)
        /. float_of_int (max 1 (sum (fun (x, _, _, _) -> x.wall_ns) stats)))
       ncamp;
     set "obs.overhead_frac" ((workload_eps w bare /. plain_eps) -. 1.) (List.length bare)
   end
   else
     List.iter
       (fun m -> set_absent m "no observer attached in this workload")
       [ "obs.events_per_exec"; "obs.bytes_per_exec"; "obs.phase_cover"; "obs.overhead_frac" ]);
  (* The gap campaigns, then the replay of their recorded executions. *)
  let traced_eps = workload_eps w (List.map (fun x -> x.g) gapped) in
  (* At nominal host speed, as the untraced run reports [execs_per_s]. *)
  set "trace.execs_per_s" (traced_eps *. probe /. probe_nominal_ns) (List.length gapped);
  set "trace.overhead_frac" (1. -. (traced_eps /. plain_eps)) (List.length gapped);
  let all_gaps = ref [] in
  let stalls = ref 0 in
  let stall_time = Hashtbl.create 8 in
  let gapped_wall = Hashtbl.create 8 in
  let len_sum = ref 0 and len_n = ref 0 in
  List.iter
    (fun x ->
      let prev = ref x.start in
      Array.iter
        (fun t ->
          let gap = t - !prev in
          all_gaps := float_of_int gap :: !all_gaps;
          if gap > stall_ns then begin
            incr stalls;
            ignore (Spans.add Spans.stall ~start:!prev ~stop:t ~parent:(-1) ~camp:x.camp);
            let old = Option.value (Hashtbl.find_opt stall_time x.g.subject) ~default:0 in
            Hashtbl.replace stall_time x.g.subject (old + gap)
          end;
          prev := t)
        x.stamps;
      let old = Option.value (Hashtbl.find_opt gapped_wall x.g.subject) ~default:0 in
      Hashtbl.replace gapped_wall x.g.subject (old + x.g.wall_ns);
      len_sum := !len_sum + x.len_sum;
      len_n := !len_n + x.g.execs)
    gapped;
  let gaps = Array.of_list !all_gaps in
  Array.sort compare gaps;
  let pct p =
    if Array.length gaps = 0 then 0.
    else gaps.(min (Array.length gaps - 1) (int_of_float (p *. float_of_int (Array.length gaps))))
  in
  set "search.gap_ns_p50" (pct 0.50) (Array.length gaps);
  set "search.gap_ns_p99" (pct 0.99) (Array.length gaps);
  set "search.stalls" (float_of_int !stalls /. float_of_int (max 1 (List.length gapped)))
    (List.length gapped);
  set "exec.input_len" (ratio !len_sum !len_n) !len_n;
  List.iter
    (fun name ->
      match Hashtbl.find_opt gapped_wall name with
      | Some wall ->
        set ("search." ^ name ^ ".stall_frac")
          (ratio (Option.value (Hashtbl.find_opt stall_time name) ~default:0) wall)
          rounds
      | None -> ())
    w.subjects;
  List.iter
    (fun x ->
      let s = Catalog.find x.g.subject in
      let rng = Rng.make x.g.seed in
      let hits = Hits.create () in
      let camp = Spans.new_campaign "replay" s.name x.g.seed in
      List.iter (replay_one s ~vbr:x.g.coverage ~rng ~hits ~camp) x.inputs)
    gapped;
  (* Queue pass: one campaign per subject. *)
  List.iter (fun s -> ignore (queue_campaign s seed)) subjects;
  let truncs = acc "queue.truncate" in
  set "queue.truncations" (float_of_int truncs.n /. float_of_int (List.length subjects))
    (List.length subjects);
  (match mean_ns "queue.op" with
   | Some (v, n) -> set "queue.op_ns" v n
   | None -> set_absent "queue.op_ns" "no queue operation recorded");
  (match mean_ns "queue.truncate" with
   | Some (v, n) -> set "queue.truncate_ns" v n
   | None -> set_absent "queue.truncate_ns" "the queue never reached twice its bound");
  (* Layer means over every subject, then per subject. *)
  let pooled prefix =
    let total = { n = 0; pairs = 0; ns = 0; words = 0. } in
    Hashtbl.iter
      (fun key a ->
        if String.starts_with ~prefix key then begin
          total.n <- total.n + a.n;
          total.pairs <- total.pairs + a.pairs;
          total.ns <- total.ns + a.ns
        end)
      accs;
    mean_of total
  in
  (match pooled "cache.resume." with Some (v, n) -> set "cache.resume_ns" v n | None -> ());
  (match pooled "cache.snapshot." with Some (v, n) -> set "cache.snapshot_ns" v n | None -> ());
  set_mean "search.derive_ns" "search.derive";
  set_mean "search.score_ns" "search.score";
  set_mean "search.hits_ns" "search.hits";
  List.iter
    (fun (s : Subject.t) ->
      let name = s.name in
      let xs = List.filter (fun x -> x.subject = name) plain in
      (match mean_ns ("exec.cold." ^ name) with
       | Some (cold, n) ->
         set ("exec." ^ name ^ ".cold_ns") cold n;
         let a = acc ("exec.cold." ^ name) in
         set ("exec." ^ name ^ ".cold_words") (a.words /. float_of_int a.n) n;
         let sexecs = sum (fun x -> x.execs) xs in
         let shits = sum (fun x -> x.cache_hits) xs in
         let resume =
           match mean_ns ("cache.resume." ^ name) with Some (v, _) -> v | None -> cold
         in
         (* Campaign time per execution minus what its executions would
            cost alone: resumed ones at the resume cost, the rest cold. *)
         let exec_ns =
           ((float_of_int shits *. resume) +. (float_of_int (sexecs - shits) *. cold))
           /. float_of_int (max 1 sexecs)
         in
         let campaign_ns = 1e9 /. median (eps xs) in
         set ("search." ^ name ^ ".overhead_ns") (campaign_ns -. exec_ns) (List.length xs)
       | None -> ());
      if s.machine <> None then
        set ("cache." ^ name ^ ".hit_ratio")
          (ratio (sum (fun x -> x.cache_hits) xs)
             (sum (fun x -> x.cache_hits + x.cache_misses) xs))
          (List.length xs))
    subjects

(* The fleet layer: whole fleet campaigns against [Dist.reference], one
   shard in process with and without progress frames, and the frames'
   wire encoding. *)
let trace_fleet ~seed ~rounds =
  let json = Catalog.find "json" in
  let fs = List.map snd (fleet_sweep json ~seed ~rounds) in
  let n = List.length fs in
  set "fleet.frames" (mean (List.map (fun f -> float_of_int f.f_frames) fs)) n;
  set "fleet.replays" (float_of_int (sum (fun f -> f.f_replays) fs)) n;
  set "fleet.scaling"
    (median (List.map (fun f -> float_of_int f.f_ref_ns /. float_of_int f.f_wall_ns) fs))
    n;
  let plan = Dist.plan ~shards (fleet_config seed) in
  let sh = List.hd plan.shards in
  let cfg = Dist.shard_config plan sh in
  let frames = ref [] in
  let on_checkpoint ck =
    frames :=
      {
        Dist.Frame.shard = sh.shard_id;
        seq = Pfuzzer.Checkpoint.executions ck;
        final = false;
        result = Pfuzzer.Checkpoint.partial_result ck;
        metrics = None;
      }
      :: !frames
  in
  let timed f =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    float_of_int (now () - t0)
  in
  let pairs =
    List.init 3 (fun _ ->
        frames := [];
        let on_ns =
          timed (fun () -> Pfuzzer.fuzz ~checkpoint_every:frame_every ~on_checkpoint cfg json)
        in
        let off_ns = timed (fun () -> Pfuzzer.fuzz cfg json) in
        (on_ns, off_ns))
  in
  let shard_frames = List.rev !frames in
  let nframes = List.length shard_frames in
  set "fleet.capture_ns"
    ((median (List.map fst pairs) -. median (List.map snd pairs)) /. float_of_int (max 1 nframes))
    (List.length pairs);
  let camp = Spans.new_campaign "frames" json.name sh.shard_seed in
  let encoded =
    List.map
      (fun f ->
        let t0 = now () in
        let s = Dist.Frame.encode f in
        let t1 = now () in
        ignore (Spans.add Spans.encode ~start:t0 ~stop:t1 ~parent:(-1) ~camp);
        record "fleet.encode" (t1 - t0);
        s)
      shard_frames
  in
  set "fleet.frame_bytes"
    (ratio (sum String.length encoded) (List.length encoded))
    (List.length encoded);
  set_mean "fleet.encode_ns" "fleet.encode";
  let decoder = Dist.Frame.Decoder.create () in
  List.iter
    (fun s ->
      let t0 = now () in
      Dist.Frame.Decoder.feed decoder (Bytes.unsafe_of_string s) (String.length s);
      let got = Dist.Frame.Decoder.next decoder in
      let t1 = now () in
      ignore (Spans.add Spans.decode ~start:t0 ~stop:t1 ~parent:(-1) ~camp);
      record "fleet.decode" (t1 - t0);
      let ok = match got with `Frame _ -> true | `Reject _ | `Await -> false in
      if not ok then fail "fleet-json" seed "an encoded frame did not decode";
      tally ~attempts:0 ~failures:(if ok then 0 else 1))
    encoded;
  set_mean "fleet.decode_ns" "fleet.decode"

(* A traced round runs each campaign about three times over (plain, gap
   and replay), so a traced run takes a third of the rounds. *)
let run_trace w ~seed ~seconds =
  let rounds = max 1 (rounds w seconds / 3) in
  stamp w ~seed ~rounds;
  let spin0 = spin_ns () in
  env "clock_ns" (Printf.sprintf "%.0f" (Lazy.force clock_ns));
  Printf.printf "ready %d\n" (now ());
  (match w.kind with
   | Plain | Observed ->
     trace_single w ~seed ~rounds;
     List.iter
       (fun m -> set_absent m "single-process workload, no fleet")
       [ "fleet.frames"; "fleet.frame_bytes"; "fleet.capture_ns"; "fleet.encode_ns";
         "fleet.decode_ns"; "fleet.scaling"; "fleet.replays" ]
   | Fleet ->
     (* The fork-based campaigns first: nothing before them spawns a
        domain, and the single-process layers need only one round. *)
     trace_fleet ~seed ~rounds;
     trace_single w ~seed ~rounds:1);
  let spin1 = spin_ns () in
  env "spin_start_ns" (Printf.sprintf "%.0f" spin0);
  env "spin_end_ns" (Printf.sprintf "%.0f" spin1);
  set "host.spin_ns" ((spin0 +. spin1) /. 2.) 2;
  List.iter
    (fun (name, unit) ->
      match Hashtbl.find_opt layer name with
      | Some (Ok (v, n)) -> metric name v unit n
      | Some (Error reason) ->
        absent name reason;
        metric name 0. unit 0
      | None ->
        absent name "subject not in this workload";
        metric name 0. unit 0)
    per_layer;
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  let path = Filename.concat spans_dir ("spans-" ^ w.name ^ ".tsv") in
  Spans.write path;
  Printf.printf "spans %s\n" path

(* {1 Digest table} *)

let print_digests () =
  print_string
    "# key seed digest: MD5 of the result projection that \
     Pdf_check.Invariants.results_equal compares\n\
     # (perfbench/main.ml, result_digest), 20k executions per campaign, \
     fleet-json = Dist.reference over 8 shards.\n\
     # Regenerate: .bench_build/default/perfbench/main.exe digests\n";
  for seed = 0 to digest_seeds - 1 do
    List.iter
      (fun name ->
        let r = Pfuzzer.fuzz (config seed) (Catalog.find name) in
        Printf.printf "%s %d %s\n%!" name seed (result_digest r))
      all_subjects;
    let r = Dist.reference ~shards (fleet_config seed) (Catalog.find "json") in
    Printf.printf "fleet-json %d %s\n%!" seed (result_digest r)
  done

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe (setup|run|trace) --workload W [--seed N] [--seconds S]\n\
    \       main.exe digests";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest = match args with m :: rest -> (m, rest) | [] -> usage () in
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when List.mem key [ "--workload"; "--seed"; "--seconds" ] ->
      Hashtbl.replace opts (String.sub key 2 (String.length key - 2)) value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse rest;
  let opt key = Hashtbl.find_opt opts key in
  let int_opt key default =
    match opt key with
    | None -> default
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  if mode = "digests" then begin
    print_digests ();
    exit 0
  end;
  let w =
    match List.find_opt (fun w -> Some w.name = opt "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  if Build_profile.profile <> "release" then begin
    Printf.eprintf "refusing to measure a %S build: build with --profile release\n"
      Build_profile.profile;
    exit 3
  end;
  load_digests ();
  List.iter (fun name -> ignore (Catalog.find name)) w.subjects;
  let seed = int_opt "seed" 1 and seconds = int_opt "seconds" 20 in
  (match mode with
   | "setup" -> Printf.printf "ready %d\n" (now ())
   | "run" -> run_e2e w ~seed ~seconds
   | "trace" -> run_trace w ~seed ~seconds
   | _ -> usage ());
  Printf.printf "tally %d %d\n" !attempted !failed
