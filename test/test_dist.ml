(* Tests for distributed campaign orchestration: the semilattice laws of
   the coordinator's frame merge (on adversarial QCheck frames), a
   model-based replay of a recorded 2-worker campaign against the
   sequential reference, frame-decode damage (truncation, version skew,
   digest corruption, interleaved partial frames), and forked end-to-end
   campaigns — workers:1 = workers:2 = workers:4 bit-identical, worker
   death + replay included. *)

module Dist = Pdf_eval.Dist
module Frame = Dist.Frame
module Merge = Dist.Merge
module Pfuzzer = Pdf_core.Pfuzzer
module Coverage = Pdf_instr.Coverage
module Hits = Pdf_instr.Hits
module Catalog = Pdf_subjects.Catalog
module Invariants = Pdf_check.Invariants
module Event = Pdf_obs.Event
module Metrics = Pdf_obs.Metrics
module Rng = Pdf_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let subject name =
  try Catalog.find name
  with Not_found -> Alcotest.failf "no subject %S in the catalog" name

(* {1 Frame generators}

   Adversarial by design: colliding shard ids, colliding sequence
   numbers, progress and final frames mixed freely. The merge laws must
   hold on these, not just on well-formed campaign traffic. *)

let mk_result ~valid ~cov ~hits ~execs ~hangs =
  {
    Pfuzzer.valid_inputs = valid;
    valid_coverage = Coverage.of_list cov;
    hits = Hits.of_list hits;
    executions = execs;
    candidates_created = 2 * execs;
    queue_peak = execs / 2;
    first_valid_at = (if valid = [] then None else Some (1 + (execs / 3)));
    dedupe_resets = 0;
    path_resets = 0;
    cache = Pfuzzer.no_cache_stats;
    crashes = [];
    crash_total = 0;
    hangs;
    wall_clock_s = 0.0;
    execs_per_sec = 0.0;
  }

let gen_result =
  QCheck.Gen.(
    let* valid = small_list (string_size (int_range 0 3)) in
    let* cov = small_list (int_range 0 40) in
    let* hits = small_list (pair (int_range 0 20) (int_range 1 4)) in
    let* execs = int_range 0 60 in
    let* hangs = int_range 0 3 in
    return (mk_result ~valid ~cov ~hits ~execs ~hangs))

let gen_metrics =
  QCheck.Gen.(
    let* present = bool in
    if not present then return None
    else
      let* clock = int_range 0 5 in
      let* execs = int_range 0 100 in
      let m = Metrics.create () in
      Metrics.add (Metrics.counter m "shard/executions") execs;
      return (Some (Metrics.snapshot ~origin:0 ~clock m)))

let gen_frame =
  QCheck.Gen.(
    let* shard = int_range 0 3 in
    let* seq = int_range 0 5 in
    let* final = bool in
    let* result = gen_result in
    let* metrics = gen_metrics in
    return { Frame.shard; seq; final; result; metrics })

let arb_frames =
  QCheck.make
    ~print:(fun fs ->
      String.concat ";"
        (List.map
           (fun (f : Frame.t) ->
             Printf.sprintf "(shard %d, seq %d%s)" f.shard f.seq
               (if f.final then ", final" else ""))
           fs))
    QCheck.Gen.(list_size (int_range 0 12) gen_frame)

let state_of frames = List.fold_left Merge.add Merge.empty frames

(* {1 Merge laws} *)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge join is commutative" ~count:300
    (QCheck.pair arb_frames arb_frames)
    (fun (fa, fb) ->
      let a = state_of fa and b = state_of fb in
      Merge.equal (Merge.join a b) (Merge.join b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge join is associative" ~count:300
    (QCheck.triple arb_frames arb_frames arb_frames)
    (fun (fa, fb, fc) ->
      let a = state_of fa and b = state_of fb and c = state_of fc in
      Merge.equal
        (Merge.join a (Merge.join b c))
        (Merge.join (Merge.join a b) c))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge join is idempotent" ~count:300 arb_frames
    (fun fs ->
      let a = state_of fs in
      Merge.equal (Merge.join a a) a)

let prop_merge_arrival_order_invariant =
  QCheck.Test.make ~name:"fold order and duplicate delivery are invisible"
    ~count:300
    (QCheck.pair arb_frames QCheck.small_int)
    (fun (fs, seed) ->
      let arr = Array.of_list fs in
      Rng.shuffle (Rng.make seed) arr;
      (* Shuffled, and with every frame delivered twice. *)
      let twice = Array.to_list arr @ Array.to_list arr in
      Merge.equal (state_of fs) (state_of twice))

(* {1 Frame wire format} *)

let sample_frame ?(shard = 0) ?(seq = 5) ?(final = true) () =
  {
    Frame.shard;
    seq;
    final;
    result =
      mk_result ~valid:[ "()"; "(())" ] ~cov:[ 1; 4; 9 ]
        ~hits:[ (1, 3); (4, 1) ] ~execs:40 ~hangs:1;
    metrics = None;
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_reject name fragment = function
  | Ok _ -> Alcotest.failf "%s: damaged frame was accepted" name
  | Error reason ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: reason %S mentions %S" name reason fragment)
      true (contains reason fragment)

let test_frame_roundtrip () =
  let f = sample_frame () in
  match Frame.decode_body (Frame.encode_body f) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok f' ->
    Alcotest.(check string) "canonical bytes survive the round-trip"
      (Frame.encode_body f) (Frame.encode_body f');
    Alcotest.(check bool) "fields survive" true
      (f'.Frame.shard = f.Frame.shard
      && f'.seq = f.seq && f'.final = f.final
      && f'.result.Pfuzzer.executions = f.result.Pfuzzer.executions)

let corrupt_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let test_frame_damage () =
  let body = Frame.encode_body (sample_frame ()) in
  (* Truncation below the fixed header. *)
  check_reject "short" "too short" (Frame.decode_body (String.sub body 0 10));
  (* Wrong magic. *)
  check_reject "magic" "bad magic" (Frame.decode_body (corrupt_byte body 0));
  (* Version skew alone: digest still matches, skew is reported. *)
  check_reject "version" "version mismatch" (Frame.decode_body (corrupt_byte body 6));
  (* Payload corruption alone. *)
  check_reject "digest" "digest mismatch"
    (Frame.decode_body (corrupt_byte body (String.length body - 1)));
  (* Corruption AND a bumped version byte: precedence says the digest
     verdict wins — rot is never misreported as skew. *)
  check_reject "digest-before-version" "digest mismatch"
    (Frame.decode_body
       (corrupt_byte (corrupt_byte body 6) (String.length body - 1)))

(* Frame bodies encoded by the last build of each older version:
   [sync-frame-v2.bin], whose [Pfuzzer.result] still carried [engine],
   [sync-frame-v3.bin], whose metrics snapshot still carried [gauges],
   and [sync-frame-v4.bin], whose cache stats still carried [rescues].
   Their digests are intact, so only the version byte keeps them from
   being unmarshalled into the wrong record layout. *)
let test_old_frames_rejected () =
  List.iter
    (fun v ->
      let path = Printf.sprintf "fixtures/sync-frame-v%d.bin" v in
      let body = In_channel.with_open_bin path In_channel.input_all in
      check_reject (Printf.sprintf "v%d fixture" v) "version mismatch"
        (Frame.decode_body body))
    [ 2; 3; 4 ]

(* {1 Streaming decoder} *)

let feed_string d s =
  Frame.Decoder.feed d (Bytes.of_string s) (String.length s)

let feed_chunked d chunk s =
  let n = String.length s in
  let rec go i =
    if i < n then begin
      let len = min chunk (n - i) in
      feed_string d (String.sub s i len);
      go (i + len)
    end
  in
  go 0

let drain d =
  let rec go acc =
    match Frame.Decoder.next d with
    | `Frame f -> go (`Frame f :: acc)
    | `Reject r -> go (`Reject r :: acc)
    | `Await -> List.rev acc
  in
  go []

let test_decoder_interleaved_partials () =
  (* Three frames fed 7 bytes at a time: every chunk boundary lands
     mid-frame somewhere, several frames straddle a single feed. *)
  let frames =
    [
      sample_frame ~shard:0 ~seq:1 ~final:false ();
      sample_frame ~shard:1 ~seq:2 ~final:false ();
      sample_frame ~shard:0 ~seq:9 ~final:true ();
    ]
  in
  let wire = String.concat "" (List.map Frame.encode frames) in
  let d = Frame.Decoder.create () in
  feed_chunked d 7 wire;
  let got = drain d in
  Alcotest.(check int) "three frames decoded" 3 (List.length got);
  List.iter2
    (fun (expect : Frame.t) out ->
      match out with
      | `Frame (f : Frame.t) ->
        Alcotest.(check bool) "frame order and identity preserved" true
          (f.shard = expect.shard && f.seq = expect.seq && f.final = expect.final)
      | `Reject r -> Alcotest.failf "unexpected reject: %s" r)
    frames got;
  Alcotest.(check (option string)) "clean EOF" None (Frame.Decoder.finish d)

let test_decoder_damaged_frame_resync () =
  (* good | corrupted | good, split into 5-byte chunks: the damaged
     body is rejected with its one-line reason and the stream picks
     back up at the next length prefix. *)
  let g1 = Frame.encode (sample_frame ~shard:0 ~seq:1 ()) in
  let bad =
    let whole = Frame.encode (sample_frame ~shard:1 ~seq:2 ()) in
    corrupt_byte whole (String.length whole - 2)
  in
  let g2 = Frame.encode (sample_frame ~shard:2 ~seq:3 ()) in
  let d = Frame.Decoder.create () in
  feed_chunked d 5 (g1 ^ bad ^ g2);
  (match drain d with
   | [ `Frame f1; `Reject reason; `Frame f2 ] ->
     Alcotest.(check int) "first frame" 0 f1.Frame.shard;
     Alcotest.(check bool) "one-line digest reason" true
       (String.length reason > 0
       && not (String.contains reason '\n')
       && f2.Frame.shard = 2)
   | outs -> Alcotest.failf "expected frame/reject/frame, got %d outputs" (List.length outs));
  Alcotest.(check (option string)) "clean EOF" None (Frame.Decoder.finish d)

let test_decoder_truncation () =
  let wire = Frame.encode (sample_frame ()) in
  (* Cut inside the length prefix. *)
  let d = Frame.Decoder.create () in
  feed_string d (String.sub wire 0 2);
  Alcotest.(check bool) "awaiting" true (drain d = []);
  (match Frame.Decoder.finish d with
   | Some reason ->
     Alcotest.(check bool) "prefix truncation named" true
       (String.length reason > 0 && not (String.contains reason '\n'))
   | None -> Alcotest.fail "truncated length prefix went unreported");
  (* Cut inside the body. *)
  let d = Frame.Decoder.create () in
  feed_string d (String.sub wire 0 (String.length wire - 3));
  Alcotest.(check bool) "awaiting body" true (drain d = []);
  (match Frame.Decoder.finish d with
   | Some _ -> ()
   | None -> Alcotest.fail "truncated body went unreported")

let test_decoder_implausible_length () =
  let d = Frame.Decoder.create () in
  feed_string d "\xff\xff\xff\xff garbage follows";
  (match drain d with
   | [ `Reject reason ] ->
     Alcotest.(check bool) "implausible length named" true
       (String.length reason > 0 && not (String.contains reason '\n'))
   | _ -> Alcotest.fail "garbage length prefix not rejected");
  (* The stream is dead, not crashed: further bytes are swallowed. *)
  feed_string d "more garbage";
  Alcotest.(check bool) "dead stream stays quiet" true (drain d = []);
  Alcotest.(check (option string)) "dead stream EOF is clean" None
    (Frame.Decoder.finish d)

(* {1 Model-based replay}

   Record the frame streams a 2-worker campaign would produce (each
   worker's shards run in-process, frames captured instead of piped),
   interleave them in several adversarial delivery orders, and demand
   that every fold reaches the same state and that the merged result
   equals the sequential reference. *)

let record_shard_frames p subject (sh : Dist.shard) =
  let frames = ref [] in
  let send f = frames := f :: !frames in
  let cfg = Dist.shard_config p sh in
  let result =
    Pfuzzer.fuzz ~checkpoint_every:20
      ~on_checkpoint:(fun ck ->
        send
          {
            Frame.shard = sh.Dist.shard_id;
            seq = Pfuzzer.Checkpoint.executions ck;
            final = false;
            result = Pfuzzer.Checkpoint.partial_result ck;
            metrics = None;
          })
      cfg subject
  in
  send
    {
      Frame.shard = sh.Dist.shard_id;
      seq = sh.Dist.shard_budget + 1;
      final = true;
      result = { result with Pfuzzer.wall_clock_s = 0.0; execs_per_sec = 0.0 };
      metrics = None;
    };
  List.rev !frames

let test_model_replay () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 240; seed = 11 } in
  let p = Dist.plan ~shards:4 config in
  (* Worker 0 owns shards 0 and 2, worker 1 owns 1 and 3 — the
     campaign's round-robin deal. *)
  let stream w =
    List.concat_map
      (fun sh -> record_shard_frames p subject sh)
      (List.filter (fun (sh : Dist.shard) -> sh.Dist.shard_id mod 2 = w) p.Dist.shards)
  in
  let w0 = stream 0 and w1 = stream 1 in
  let rec interleave = function
    | [], rest | rest, [] -> rest
    | a :: ra, b :: rb -> a :: b :: interleave (ra, rb)
  in
  let deliveries =
    [
      w0 @ w1;  (* worker 0 entirely first *)
      w1 @ w0;  (* worker 1 entirely first *)
      interleave (w0, w1);  (* frame-by-frame alternation *)
      interleave (w1, w0) @ w0;  (* alternation plus duplicate delivery *)
    ]
  in
  let states = List.map state_of deliveries in
  (match states with
   | first :: rest ->
     List.iteri
       (fun i st ->
         Alcotest.(check bool)
           (Printf.sprintf "delivery order %d folds to the same state" (i + 1))
           true (Merge.equal first st))
       rest
   | [] -> assert false);
  let finals =
    List.map
      (fun (f : Frame.t) ->
        Alcotest.(check bool) "completed state holds final frames" true f.final;
        f.result)
      (Merge.frames (List.hd states))
  in
  let merged = Dist.merge_results p finals in
  let reference = Dist.reference ~shards:4 config subject in
  Alcotest.(check bool)
    "replayed 2-worker campaign equals the sequential reference" true
    (Invariants.results_equal reference merged)

(* {1 Forked campaigns} *)

let campaign_bytes (o : Dist.outcome) = Marshal.to_string o.result []

let test_campaign_worker_invariance () =
  let subject = subject "expr" in
  let config = { Pfuzzer.default_config with max_executions = 300; seed = 7 } in
  let reference = Dist.reference ~shards:4 config subject in
  let outcomes =
    List.map
      (fun workers ->
        Dist.run_campaign ~workers ~shards:4 ~frame_every:40 config subject)
      [ 1; 2; 4 ]
  in
  List.iter
    (fun (o : Dist.outcome) ->
      Alcotest.(check (list (pair int string))) "no frames rejected" []
        o.frames_rejected;
      Alcotest.(check bool) "forked campaign equals the reference" true
        (Invariants.results_equal reference o.result))
    outcomes;
  match List.map campaign_bytes outcomes with
  | first :: rest ->
    List.iteri
      (fun i bytes ->
        Alcotest.(check bool)
          (Printf.sprintf "workers:1 and workers:%d bit-identical" (2 * (i + 1)))
          true
          (String.equal first bytes))
      rest
  | [] -> assert false

let test_campaign_kill_worker () =
  let subject = subject "json" in
  let config = { Pfuzzer.default_config with max_executions = 1200; seed = 3 } in
  let undisturbed =
    Dist.run_campaign ~workers:2 ~shards:4 ~frame_every:10 config subject
  in
  let killed =
    Dist.run_campaign ~workers:2 ~shards:4 ~frame_every:10 ~kill_worker:1 config
      subject
  in
  Alcotest.(check string)
    "merged result identical despite a SIGKILLed worker"
    (campaign_bytes undisturbed) (campaign_bytes killed);
  (* The kill should normally land mid-campaign; when it does, the
     worker's missing shards must have been replayed. *)
  (match List.assoc_opt 1 killed.worker_status with
   | Some status when String.length status >= 6 && String.sub status 0 6 = "signal"
     ->
     Alcotest.(check bool) "killed worker's shards were replayed" true
       (killed.replays > 0)
   | Some _ | None -> ())

(* The fleet metrics of a forked campaign: the frames' per-shard
   snapshots folded by the coordinator. Their counters and histogram
   counts are what [campaign --out] writes, so they must not depend on
   the worker count or on a worker's death and replay. *)
let test_campaign_fleet_metrics () =
  let subject = subject "json" in
  let config = { Pfuzzer.default_config with max_executions = 1200; seed = 5 } in
  let deterministic_part (o : Dist.outcome) =
    match o.metrics with
    | None -> Alcotest.fail "campaign returned no fleet metrics"
    | Some s ->
      ( s.Metrics.counters,
        List.map
          (fun (n, h) -> (n, Pdf_util.Stats.Histogram.count h))
          s.Metrics.histograms )
  in
  let run ?kill_worker workers =
    Dist.run_campaign ~workers ~shards:4 ~frame_every:10 ?kill_worker config
      subject
  in
  let w1 = run 1 in
  let counters, hist_counts = deterministic_part w1 in
  List.iter
    (fun (label, o) ->
      Alcotest.(check (pair (list (pair string int)) (list (pair string int))))
        (label ^ ": counters and histogram counts equal workers:1's")
        (counters, hist_counts) (deterministic_part o))
    [ ("workers:2", run 2); ("workers:2, worker 1 killed", run ~kill_worker:1 2) ];
  Alcotest.(check int) "shard/executions is the merged execution count"
    w1.result.Pfuzzer.executions
    (List.assoc "shard/executions" counters);
  Alcotest.(check bool) "phase/exec_ns recorded spans" true
    (List.assoc "phase/exec_ns" hist_counts > 0)

let test_campaign_traces_in_shard_order () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 160; seed = 2 } in
  let o =
    Dist.run_campaign ~workers:2 ~shards:3 ~frame_every:50 ~trace:true config
      subject
  in
  let p = o.o_plan in
  Alcotest.(check int) "one trace stream per shard"
    (List.length p.Dist.shards)
    (List.length o.shard_traces);
  List.iter2
    (fun (sh : Dist.shard) stream ->
      match String.index_opt stream '\n' with
      | None -> Alcotest.fail "empty shard trace stream"
      | Some nl -> (
        match Event.of_json_line (String.sub stream 0 nl) with
        | { Event.ev = Event.Run_meta m; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "shard %d stream starts with its own run_meta"
               sh.Dist.shard_id)
            sh.Dist.shard_seed m.seed
        | _ -> Alcotest.fail "shard trace does not start with run_meta"))
    p.Dist.shards o.shard_traces

let test_campaign_lifecycle_events () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 120; seed = 4 } in
  let sink, contents = Pdf_obs.Trace.buffer () in
  let obs = Pdf_obs.Observer.create ~sink () in
  let o = Dist.run_campaign ~workers:2 ~shards:2 ~frame_every:30 ~obs config subject in
  Pdf_obs.Trace.close sink;
  let events =
    String.split_on_char '\n' (contents ())
    |> List.filter (fun l -> String.length l > 0)
    |> List.map Event.of_json_line
  in
  let count pred = List.length (List.filter pred events) in
  Alcotest.(check int) "one shard event per plan entry" 2
    (count (fun e -> match e.Event.ev with Event.Shard _ -> true | _ -> false));
  Alcotest.(check int) "one spawn per worker" 2
    (count (fun e ->
         match e.Event.ev with Event.Worker_spawn _ -> true | _ -> false));
  Alcotest.(check int) "one exit per worker" 2
    (count (fun e ->
         match e.Event.ev with Event.Worker_exit _ -> true | _ -> false));
  Alcotest.(check int) "every accepted frame has an event" o.frames_accepted
    (count (fun e ->
         match e.Event.ev with Event.Worker_frame _ -> true | _ -> false));
  Alcotest.(check bool) "final frames observed for both shards" true
    (count (fun e ->
         match e.Event.ev with
         | Event.Worker_frame { final = true; _ } -> true
         | _ -> false)
    = 2)

(* {1 Plan determinism} *)

let test_plan_determinism () =
  let config = { Pfuzzer.default_config with max_executions = 103; seed = 9 } in
  let p1 = Dist.plan ~shards:4 config in
  let p2 = Dist.plan ~shards:4 config in
  Alcotest.(check bool) "equal configs give equal plans" true (p1 = p2);
  let budgets = List.map (fun (sh : Dist.shard) -> sh.Dist.shard_budget) p1.Dist.shards in
  Alcotest.(check int) "budgets cover the campaign" 103
    (List.fold_left ( + ) 0 budgets);
  Alcotest.(check (list int)) "remainder goes to the low shards"
    [ 26; 26; 26; 25 ] budgets;
  let seeds = List.map (fun (sh : Dist.shard) -> sh.Dist.shard_seed) p1.Dist.shards in
  Alcotest.(check bool) "shard seeds are pairwise distinct" true
    (List.length (List.sort_uniq compare seeds) = List.length seeds)

let () =
  Alcotest.run "dist"
    [
      ( "merge-laws",
        [
          qtest prop_merge_commutative;
          qtest prop_merge_associative;
          qtest prop_merge_idempotent;
          qtest prop_merge_arrival_order_invariant;
        ] );
      ( "wire-format",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "damage is rejected with one-line reasons" `Quick
            test_frame_damage;
          Alcotest.test_case "v2 and v3 frames are a version mismatch" `Quick
            test_old_frames_rejected;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "interleaved partial frames" `Quick
            test_decoder_interleaved_partials;
          Alcotest.test_case "damaged frame then resync" `Quick
            test_decoder_damaged_frame_resync;
          Alcotest.test_case "truncation at EOF" `Quick test_decoder_truncation;
          Alcotest.test_case "implausible length kills the stream" `Quick
            test_decoder_implausible_length;
        ] );
      ( "model-replay",
        [
          Alcotest.test_case "recorded 2-worker campaign = reference" `Quick
            test_model_replay;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "plan is deterministic" `Quick test_plan_determinism;
          Alcotest.test_case "workers:1 = workers:2 = workers:4" `Quick
            test_campaign_worker_invariance;
          Alcotest.test_case "SIGKILLed worker is replayed" `Slow
            test_campaign_kill_worker;
          Alcotest.test_case "fleet metrics are worker-invariant" `Slow
            test_campaign_fleet_metrics;
          Alcotest.test_case "per-shard traces in shard order" `Quick
            test_campaign_traces_in_shard_order;
          Alcotest.test_case "coordinator lifecycle events" `Quick
            test_campaign_lifecycle_events;
        ] );
    ]
