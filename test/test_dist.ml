(* Tests for distributed campaign orchestration: the slot rule of the
   coordinator's per-shard accumulator (on hand-picked frames, and on
   QCheck-generated one-owner delivery), a model-based replay of a
   recorded 2-worker campaign against the sequential reference,
   frame-decode damage (truncation, version skew, digest corruption,
   interleaved partial frames), and forked end-to-end campaigns —
   workers:1 = workers:2 = workers:4 bit-identical, worker death +
   replay included. *)

module Dist = Pdf_eval.Dist
module Frame = Dist.Frame
module Slots = Dist.Slots
module Pfuzzer = Pdf_core.Pfuzzer
module Coverage = Pdf_instr.Coverage
module Hits = Pdf_instr.Hits
module Catalog = Pdf_subjects.Catalog
module Invariants = Pdf_check.Invariants
module Event = Pdf_obs.Event
module Metrics = Pdf_obs.Metrics
module Histogram = Pdf_util.Stats.Histogram
module Rng = Pdf_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let subject name =
  try Catalog.find name
  with Not_found -> Alcotest.failf "no subject %S in the catalog" name

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

(* A final frame's metrics snapshot, in the layout frames marshal since
   version 6, arrives with every counter and histogram intact: the
   fleet totals are summed from these. *)
let test_frame_metrics_roundtrip () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "shard/executions") 40;
  Metrics.add (Metrics.counter m "shard/valid") 2;
  List.iter
    (Histogram.record (Metrics.histogram m "phase/exec_ns"))
    [ 120; 4_000; 90_000 ];
  let snap = Metrics.snapshot m in
  let f = { (sample_frame ()) with Frame.metrics = Some snap } in
  match Frame.decode_body (Frame.encode_body f) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok { Frame.metrics = None; _ } -> Alcotest.fail "metrics snapshot lost"
  | Ok { Frame.metrics = Some s; _ } ->
    Alcotest.(check (list (pair string int))) "counters survive"
      snap.Metrics.counters s.Metrics.counters;
    Alcotest.(check (list string)) "histogram names survive"
      (List.map fst snap.Metrics.histograms)
      (List.map fst s.Metrics.histograms);
    List.iter2
      (fun (name, h) (_, h') ->
        Alcotest.(check bool) (name ^ " survives") true (Histogram.equal h h'))
      snap.Metrics.histograms s.Metrics.histograms

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
   [sync-frame-v4.bin], whose cache stats still carried [rescues], and
   [sync-frame-v5.bin], whose metrics snapshot still carried [origin]
   and [clock]. Their digests are intact, so only the version byte
   keeps them from being unmarshalled into the wrong record layout. *)
let test_old_frames_rejected () =
  List.iter
    (fun v ->
      let path = Printf.sprintf "fixtures/sync-frame-v%d.bin" v in
      let body = In_channel.with_open_bin path In_channel.input_all in
      check_reject (Printf.sprintf "v%d fixture" v) "version mismatch"
        (Frame.decode_body body))
    [ 2; 3; 4; 5 ]

(* {1 Slots} *)

let test_slots () =
  let config = { Pfuzzer.default_config with max_executions = 300; seed = 1 } in
  let slots = Slots.create (Dist.plan ~shards:3 config) in
  let add (f : Frame.t) =
    match Slots.add slots f with
    | Ok () -> ()
    | Error e -> Alcotest.failf "frame for shard %d refused: %s" f.shard e
  in
  let held () =
    List.map (fun (f : Frame.t) -> (f.shard, f.seq, f.final)) (Slots.latest slots)
  in
  let check_held msg expect =
    Alcotest.(check (list (triple int int bool))) msg expect (held ())
  in
  let check_missing msg expect =
    Alcotest.(check (list int)) msg expect
      (List.map (fun (sh : Dist.shard) -> sh.Dist.shard_id) (Slots.missing slots))
  in
  check_missing "every shard lacks a final at first" [ 0; 1; 2 ];
  add (sample_frame ~shard:1 ~seq:10 ~final:false ());
  add (sample_frame ~shard:1 ~seq:20 ~final:false ());
  check_held "a newer progress frame replaces an older one" [ (1, 20, false) ];
  add (sample_frame ~shard:1 ~seq:101 ~final:true ());
  add (sample_frame ~shard:1 ~seq:30 ~final:false ());
  check_held "a progress frame never replaces a final" [ (1, 101, true) ];
  add (sample_frame ~shard:1 ~seq:999 ~final:true ());
  check_held "a second final never replaces the first" [ (1, 101, true) ];
  add (sample_frame ~shard:2 ~seq:40 ~final:false ());
  check_missing "a progress frame is not a final" [ 0; 2 ];
  add (sample_frame ~shard:0 ~seq:101 ~final:true ());
  check_missing "missing lists exactly the shards without a final" [ 2 ];
  List.iter
    (fun shard ->
      check_reject
        (Printf.sprintf "shard %d" shard)
        "outside the 3-shard plan"
        (Slots.add slots (sample_frame ~shard ~final:true ())))
    [ 3; 4; -1 ];
  check_held "refused frames change no slot"
    [ (0, 101, true); (1, 101, true); (2, 40, false) ]

(* One-owner delivery, as a campaign produces it: each shard's frames
   cross its owner's FIFO pipe in order, progress frames then the
   final, and the pipes interleave arbitrarily. A killed owner's stream
   stops short of the final; the replay streams the shard in full, and
   only after that owner's pipe reached EOF. Per shard, the generator
   picks the number of progress frames and, for a killed owner, how
   many of them got through. *)
let arb_delivery =
  QCheck.make
    ~print:QCheck.Print.(pair (list (pair int (option int))) int)
    QCheck.Gen.(
      let* shards = int_range 1 4 in
      let* streams =
        list_repeat shards (pair (int_range 0 4) (opt (int_range 0 4)))
      in
      let* order = int_bound 1_000_000 in
      return (streams, order))

(* Pop the head of a random non-empty stream until all are drained:
   each stream keeps its own order, the interleaving is [rng]'s. *)
let interleave_streams rng streams =
  let queues = Array.of_list streams in
  let rec go acc =
    let live = List.init (Array.length queues) Fun.id in
    match List.filter (fun i -> queues.(i) <> []) live with
    | [] -> List.rev acc
    | live ->
      let i = List.nth live (Rng.int rng (List.length live)) in
      (match queues.(i) with
       | f :: rest ->
         queues.(i) <- rest;
         go (f :: acc)
       | [] -> assert false)
  in
  go []

let prop_slots_one_owner_delivery =
  QCheck.Test.make ~name:"one-owner delivery ends at each shard's final"
    ~count:300 arb_delivery
    (fun (streams, order) ->
      let config = { Pfuzzer.default_config with max_executions = 300; seed = 1 } in
      let p = Dist.plan ~shards:(List.length streams) config in
      let frame (sh : Dist.shard) ~final execs =
        {
          Frame.shard = sh.shard_id;
          seq = (if final then sh.shard_budget + 1 else execs);
          final;
          result =
            mk_result
              ~valid:(if final then [ string_of_int sh.shard_id ] else [])
              ~cov:[ sh.shard_id ] ~hits:[] ~execs ~hangs:0;
          metrics = None;
        }
      in
      let full =
        List.map2
          (fun (sh : Dist.shard) (progress, _) ->
            List.init progress (fun i -> frame sh ~final:false (10 * (i + 1)))
            @ [ frame sh ~final:true sh.shard_budget ])
          p.Dist.shards streams
      in
      let owners, replays =
        List.split
          (List.map2
             (fun stream (progress, killed) ->
               match killed with
               | None -> (stream, [])
               | Some k -> (List.filteri (fun i _ -> i < min k progress) stream, stream))
             full streams)
      in
      let killed =
        List.filter_map
          (fun ((sh : Dist.shard), (_, k)) ->
            Option.map (fun _ -> sh.shard_id) k)
          (List.combine p.Dist.shards streams)
      in
      let slots = Slots.create p in
      let rng = Rng.make order in
      let deliver streams =
        List.iter
          (fun f -> Result.iter_error failwith (Slots.add slots f))
          (interleave_streams rng streams)
      in
      let last stream = List.nth_opt (List.rev stream) 0 in
      let bodies frames = List.map Frame.encode_body frames in
      let missing () =
        List.map (fun (sh : Dist.shard) -> sh.Dist.shard_id) (Slots.missing slots)
      in
      deliver owners;
      (* Before the replays: each slot holds its owner's newest frame,
         and exactly the killed owners' shards lack a final. *)
      let held = bodies (Slots.latest slots) = bodies (List.filter_map last owners) in
      let lacking = missing () = killed in
      deliver replays;
      held && lacking
      && missing () = []
      && bodies (Slots.latest slots) = bodies (List.filter_map last full))

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
   interleave them in several delivery orders, and demand that every
   order leaves the same finals in the slots and that their merge
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
  let finals delivery =
    let slots = Slots.create p in
    List.iter
      (fun f ->
        match Slots.add slots f with
        | Ok () -> ()
        | Error e -> Alcotest.failf "frame refused: %s" e)
      delivery;
    Alcotest.(check int) "every shard holds its final" 0
      (List.length (Slots.missing slots));
    Slots.latest slots
  in
  let bodies frames = List.map Frame.encode_body frames in
  let first, rest =
    match List.map finals deliveries with
    | first :: rest -> (first, rest)
    | [] -> assert false
  in
  List.iteri
    (fun i frames ->
      Alcotest.(check (list string))
        (Printf.sprintf "delivery order %d leaves byte-identical finals" (i + 2))
        (bodies first) (bodies frames))
    rest;
  let merged =
    Dist.merge_results p (List.map (fun (f : Frame.t) -> f.result) first)
  in
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
    p.Dist.shards o.shard_traces;
  (* The streams back to back, as [campaign --trace] writes them:
     trace-report must see one run per shard, not one run in all. *)
  let events =
    List.concat_map
      (fun stream ->
        String.split_on_char '\n' stream
        |> List.filter (fun l -> l <> "")
        |> List.map Event.of_json_line)
      o.shard_traces
  in
  let silent = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let reports = Pdf_obs.Trace_report.report_events silent events in
  Alcotest.(check int) "trace-report finds one run per shard"
    (List.length p.Dist.shards) (List.length reports);
  List.iter2
    (fun (sh : Dist.shard) (r : Pdf_obs.Trace_report.t) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d report covers its budget" sh.Dist.shard_id)
        sh.Dist.shard_budget r.execs;
      Alcotest.(check (option int))
        (Printf.sprintf "shard %d report has its seed" sh.Dist.shard_id)
        (Some sh.Dist.shard_seed)
        (Option.map (fun (m : Pdf_obs.Trace_report.meta) -> m.seed) r.meta))
    p.Dist.shards reports

(* A worker killed mid-shard never wrote that shard's stream; its replay
   writes the whole of it. So [--trace] still holds one complete stream
   per shard, equal to an undisturbed campaign's up to timing. *)
let test_campaign_traces_survive_kill () =
  let subject = subject "json" in
  let config = { Pfuzzer.default_config with max_executions = 1200; seed = 2 } in
  let run ?kill_worker () =
    Dist.run_campaign ~workers:2 ~shards:3 ~frame_every:10 ~trace:true
      ?kill_worker config subject
  in
  let undisturbed = run () and killed = run ~kill_worker:1 () in
  Alcotest.(check int) "one stream per shard"
    (List.length undisturbed.shard_traces)
    (List.length killed.shard_traces);
  List.iteri
    (fun shard (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d stream equals the undisturbed one up to timing"
           shard)
        true
        (Pdf_obs.Trace.normalize a = Pdf_obs.Trace.normalize b))
    (List.combine undisturbed.shard_traces killed.shard_traces)

(* What the summary line reports of an undisturbed campaign: one clean
   exit per worker, no replays, no rejected frames, and a frame count
   that the plan alone fixes — finals plus one progress frame per
   [frame_every] executions, whichever worker ran the shard. *)
let test_campaign_accounting () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 120; seed = 4 } in
  let run workers =
    Dist.run_campaign ~workers ~shards:2 ~frame_every:30 config subject
  in
  let w1 = run 1 and w2 = run 2 in
  Alcotest.(check (list (pair int string))) "one clean exit per worker"
    [ (0, "exit:0"); (1, "exit:0") ]
    (List.sort compare w2.worker_status);
  List.iter
    (fun (label, (o : Dist.outcome)) ->
      Alcotest.(check int) (label ^ ": no replays") 0 o.replays;
      Alcotest.(check (list (pair int string))) (label ^ ": no frames rejected")
        [] o.frames_rejected)
    [ ("workers:1", w1); ("workers:2", w2) ];
  Alcotest.(check bool) "progress frames besides the two finals" true
    (w1.frames_accepted > 2);
  Alcotest.(check int) "frame count does not depend on the worker count"
    w1.frames_accepted w2.frames_accepted

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
      ( "slots",
        [
          Alcotest.test_case "final is never replaced" `Quick test_slots;
          qtest prop_slots_one_owner_delivery;
        ] );
      ( "wire-format",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "metrics snapshot survives the round-trip" `Quick
            test_frame_metrics_roundtrip;
          Alcotest.test_case "damage is rejected with one-line reasons" `Quick
            test_frame_damage;
          Alcotest.test_case "v2 to v5 frames are a version mismatch" `Quick
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
          Alcotest.test_case "per-shard traces survive a killed worker" `Slow
            test_campaign_traces_survive_kill;
          Alcotest.test_case "worker exits, replays and frame count" `Quick
            test_campaign_accounting;
        ] );
    ]
