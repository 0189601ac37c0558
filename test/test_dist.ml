(* Tests for distributed campaign orchestration: the slot rule of the
   coordinator's per-shard accumulator (on hand-picked frames, and on
   QCheck-generated one-owner delivery), a model-based replay of a
   recorded 2-worker campaign and the in-process re-enactment against
   the sequential reference, frame-decode damage (truncation, version
   skew, digest corruption, interleaved partial frames), and forked
   end-to-end campaigns — workers:1 = workers:2 = workers:4
   bit-identical, worker death + replay included. *)

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

(* A metrics snapshot, in the layout frames marshal since version 6,
   arrives with every counter and histogram intact. Workers send none,
   but the field is part of the frame, and the v2 to v5 fixtures below
   are told apart from it. *)
let test_frame_metrics_roundtrip () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 120; 4_000; 90_000 ];
  let snap =
    {
      Metrics.counters = [ ("shard/executions", 40); ("shard/valid", 2) ];
      histograms = [ ("phase/exec_ns", h) ];
    }
  in
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
    List.map (fun (f : Frame.t) -> (f.shard, f.seq)) (Slots.finals slots)
  in
  let check_held msg expect =
    Alcotest.(check (list (pair int int))) msg expect (held ())
  in
  let check_missing msg expect =
    Alcotest.(check (list int)) msg expect
      (List.map (fun (sh : Dist.shard) -> sh.Dist.shard_id) (Slots.missing slots))
  in
  check_missing "every shard lacks a final at first" [ 0; 1; 2 ];
  check_reject "progress frame" "not a final"
    (Slots.add slots (sample_frame ~shard:1 ~seq:10 ~final:false ()));
  check_missing "a refused progress frame fills no slot" [ 0; 1; 2 ];
  add (sample_frame ~shard:1 ~seq:101 ());
  check_held "a final fills its slot" [ (1, 101) ];
  add (sample_frame ~shard:1 ~seq:999 ());
  check_held "a second final never replaces the first" [ (1, 101) ];
  check_reject "progress frame after the final" "not a final"
    (Slots.add slots (sample_frame ~shard:1 ~seq:30 ~final:false ()));
  add (sample_frame ~shard:0 ~seq:101 ());
  check_missing "missing lists exactly the shards without a final" [ 2 ];
  List.iter
    (fun shard ->
      check_reject
        (Printf.sprintf "shard %d" shard)
        "outside the 3-shard plan"
        (Slots.add slots (sample_frame ~shard ())))
    [ 3; 4; -1 ];
  check_held "refused frames change no slot" [ (0, 101); (1, 101) ];
  check_missing "refused frames fill no slot" [ 2 ]

(* One-owner delivery, as a campaign produces it: shards are dealt
   round-robin to the workers, each worker sends its shards' finals in
   ascending order over its own FIFO pipe, and the pipes interleave
   arbitrarily. A worker that dies ([Some k]) got only its first [k]
   finals through; the replay sends the rest, and only after every
   owner's pipe reached EOF. A surviving worker may send a shard's
   final twice ([resend]); the second must not replace the first.
   Stray frames no worker sends — one that is not a final, one for a
   shard outside the plan — arrive anywhere and must be refused. *)
let arb_delivery =
  QCheck.make
    ~print:
      QCheck.Print.(
        fun (shards, deaths, (resend, strays), order) ->
          Printf.sprintf "shards %d, deaths %s, resend %b, strays %d, order %d"
            shards
            (list (option int) deaths)
            resend strays order)
    QCheck.Gen.(
      let* shards = int_range 1 6 in
      let* workers = int_range 1 3 in
      let* deaths = list_repeat workers (opt (int_range 0 2)) in
      let* resend = bool in
      let* strays = int_range 0 4 in
      let* order = int_bound 1_000_000 in
      return (shards, deaths, (resend, strays), order))

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
    (fun (shards, deaths, (resend, strays), order) ->
      let config = { Pfuzzer.default_config with max_executions = 300; seed = 1 } in
      let p = Dist.plan ~shards config in
      let workers = List.length deaths in
      let final ?(seq = 0) (sh : Dist.shard) =
        {
          Frame.shard = sh.shard_id;
          seq = (if seq = 0 then sh.shard_budget + 1 else seq);
          final = true;
          result =
            mk_result ~valid:[ string_of_int sh.shard_id ] ~cov:[ sh.shard_id ]
              ~hits:[] ~execs:sh.shard_budget ~hangs:0;
          metrics = None;
        }
      in
      let owned w =
        List.filter (fun (sh : Dist.shard) -> sh.shard_id mod workers = w) p.Dist.shards
      in
      let sent, lost =
        List.split
          (List.mapi
             (fun w death ->
               let mine = owned w in
               match death with
               | None -> (mine, [])
               | Some k ->
                 (List.filteri (fun i _ -> i < k) mine, List.filteri (fun i _ -> i >= k) mine))
             deaths)
      in
      let owner_streams =
        List.map2
          (fun mine death ->
            let resent =
              match (mine, death) with
              | sh :: _, None when resend -> [ final ~seq:1 sh ]
              | _ -> []
            in
            List.map final mine @ resent)
          sent deaths
      in
      let stray i =
        let sh = List.nth p.Dist.shards (i mod shards) in
        if i mod 2 = 0 then { (final sh) with Frame.final = false; seq = i + 1 }
        else { (final sh) with Frame.shard = (if i mod 4 = 1 then shards + i else -i) }
      in
      let by_id = List.sort (fun (a : Dist.shard) b -> compare a.shard_id b.shard_id) in
      let ids l = List.map (fun (sh : Dist.shard) -> sh.shard_id) l in
      let bodies frames = List.map Frame.encode_body frames in
      let slots = Slots.create p in
      let rng = Rng.make order in
      let accepted = ref 0 and refused = ref 0 in
      let deliver streams =
        List.iter
          (fun f ->
            match Slots.add slots f with
            | Ok () -> incr accepted
            | Error _ -> incr refused)
          (interleave_streams rng streams)
      in
      deliver (owner_streams @ List.init strays (fun i -> [ stray i ]));
      (* Before the replay: the slots hold the finals that got through,
         each its first, and exactly the dead owners' cut-off shards
         lack one. *)
      let delivered = by_id (List.concat sent) in
      let held = bodies (Slots.finals slots) = bodies (List.map final delivered) in
      let lacking = ids (Slots.missing slots) = ids (by_id (List.concat lost)) in
      deliver [ List.map final (by_id (List.concat lost)) ];
      held && lacking && !refused = strays
      && !accepted = List.length (List.concat owner_streams) + List.length (List.concat lost)
      && Slots.missing slots = []
      && bodies (Slots.finals slots) = bodies (List.map final p.Dist.shards))

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

(* What a worker sends for a shard: its final frame, and nothing else. *)
let record_shard_frames p subject (sh : Dist.shard) =
  let result = Pfuzzer.fuzz (Dist.shard_config p sh) subject in
  [
    {
      Frame.shard = sh.Dist.shard_id;
      seq = sh.Dist.shard_budget + 1;
      final = true;
      result = { result with Pfuzzer.wall_clock_s = 0.0; execs_per_sec = 0.0 };
      metrics = None;
    };
  ]

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
    Slots.finals slots
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

(* The in-process re-enactment takes the whole wire path but the fork —
   finals encoded, streams interleaved in odd-sized chunks, decoded,
   slotted and merged — so for every worker count, more workers than
   shards included, it equals the sequential reference. *)
let test_simulated_campaign () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 300; seed = 5 } in
  let reference = Dist.reference ~shards:3 config subject in
  List.iter
    (fun workers ->
      Alcotest.(check bool)
        (Printf.sprintf "workers:%d equals the reference" workers)
        true
        (Invariants.results_equal reference
           (Dist.simulate_campaign ~shards:3 ~workers config subject)))
    [ 1; 2; 3; 5 ]

(* {1 Forked campaigns} *)

let campaign_bytes (o : Dist.outcome) = Marshal.to_string o.result []

let test_campaign_worker_invariance () =
  let subject = subject "expr" in
  let config = { Pfuzzer.default_config with max_executions = 300; seed = 7 } in
  let reference = Dist.reference ~shards:4 config subject in
  let outcomes =
    List.map
      (fun workers ->
        Dist.run_campaign ~workers ~shards:4 config subject)
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

(* The kill drill SIGKILLs worker 1 as soon as it is forked, so both of
   its shards (1 and 3 of 4) are replayed on every run. *)
let test_campaign_kill_worker () =
  let subject = subject "json" in
  let config = { Pfuzzer.default_config with max_executions = 1200; seed = 3 } in
  let undisturbed = Dist.run_campaign ~workers:2 ~shards:4 config subject in
  let killed = Dist.run_campaign ~workers:2 ~shards:4 ~kill_worker:1 config subject in
  Alcotest.(check string)
    "merged result identical despite a SIGKILLed worker"
    (campaign_bytes undisturbed) (campaign_bytes killed);
  Alcotest.(check (option string)) "worker 1 died of SIGKILL" (Some "signal:9")
    (List.assoc_opt 1 killed.worker_status);
  Alcotest.(check int) "both of worker 1's shards were replayed" 2 killed.replays;
  Alcotest.(check int) "one final per shard" 4 killed.frames_accepted

let test_campaign_traces_in_shard_order () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 160; seed = 2 } in
  let o =
    Dist.run_campaign ~workers:2 ~shards:3 ~trace:true config subject
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

(* A killed worker never wrote its shards' streams; their replay writes
   the whole of them. So [--trace] still holds one complete stream per
   shard, equal to an undisturbed campaign's up to timing. *)
let test_campaign_traces_survive_kill () =
  let subject = subject "json" in
  let config = { Pfuzzer.default_config with max_executions = 1200; seed = 2 } in
  let run ?kill_worker () =
    Dist.run_campaign ~workers:2 ~shards:3 ~trace:true ?kill_worker config subject
  in
  let undisturbed = run () and killed = run ~kill_worker:1 () in
  (* Of 3 shards dealt to 2 workers, worker 1 owns shard 1 alone; the
     replay runs it on worker 2. *)
  Alcotest.(check (list (pair int string))) "shard 1 was replayed"
    [ (1, "signal:9"); (2, "exit:0") ]
    (List.filter (fun (w, _) -> w <> 0) killed.worker_status);
  Alcotest.(check int) "one shard replay" 1 killed.replays;
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

(* With its only worker killed, a campaign replays every shard on one
   fresh worker and still equals the sequential reference. *)
let test_campaign_only_worker_killed () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 300; seed = 6 } in
  let o = Dist.run_campaign ~workers:1 ~shards:3 ~kill_worker:0 config subject in
  Alcotest.(check (list (pair int string)))
    "worker 0 died of SIGKILL, replay worker 1 exited cleanly"
    [ (0, "signal:9"); (1, "exit:0") ]
    o.worker_status;
  Alcotest.(check int) "every shard was replayed" 3 o.replays;
  Alcotest.(check int) "one final per shard" 3 o.frames_accepted;
  Alcotest.(check bool) "merged result equals the reference" true
    (Invariants.results_equal (Dist.reference ~shards:3 config subject) o.result)

(* Replay rounds are bounded: with none allowed, the shards a killed
   worker owned stay missing and the campaign fails, naming them. *)
let test_campaign_retries_bound () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 120; seed = 4 } in
  match
    Dist.run_campaign ~workers:2 ~shards:4 ~retries:0 ~kill_worker:1 config subject
  with
  | _ -> Alcotest.fail "a campaign with shards still missing returned"
  | exception Failure msg ->
    Alcotest.(check string) "the failure names the missing shards"
      "dist: shard(s) 1, 3 produced no final frame after 0 replay round(s)" msg

(* Only a traced campaign attaches an observer to its shards. The
   observer watches and never steers, so the traced merged result is
   the untraced one to the byte. *)
let test_campaign_trace_neutral () =
  let subject = subject "json" in
  let config = { Pfuzzer.default_config with max_executions = 600; seed = 8 } in
  let run trace = Dist.run_campaign ~workers:2 ~shards:3 ~trace config subject in
  let traced = run true and untraced = run false in
  Alcotest.(check int) "traced: one stream per shard" 3
    (List.length traced.shard_traces);
  Alcotest.(check int) "untraced: no streams" 0 (List.length untraced.shard_traces);
  Alcotest.(check bool) "merged results bit-identical" true
    (String.equal (campaign_bytes traced) (campaign_bytes untraced))

(* What the summary line reports of an undisturbed campaign: one clean
   exit per worker, no replays, no rejected frames, and one frame per
   shard, its final, whichever worker ran the shard. *)
let test_campaign_accounting () =
  let subject = subject "paren" in
  let config = { Pfuzzer.default_config with max_executions = 120; seed = 4 } in
  let run workers = Dist.run_campaign ~workers ~shards:2 config subject in
  let w1 = run 1 and w2 = run 2 in
  Alcotest.(check (list (pair int string))) "one clean exit per worker"
    [ (0, "exit:0"); (1, "exit:0") ]
    (List.sort compare w2.worker_status);
  List.iter
    (fun (label, (o : Dist.outcome)) ->
      Alcotest.(check int) (label ^ ": no replays") 0 o.replays;
      Alcotest.(check (list (pair int string))) (label ^ ": no frames rejected")
        [] o.frames_rejected;
      Alcotest.(check int) (label ^ ": one frame per shard") 2 o.frames_accepted)
    [ ("workers:1", w1); ("workers:2", w2) ]

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
          Alcotest.test_case "simulated campaign = reference" `Quick
            test_simulated_campaign;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "plan is deterministic" `Quick test_plan_determinism;
          Alcotest.test_case "workers:1 = workers:2 = workers:4" `Quick
            test_campaign_worker_invariance;
          Alcotest.test_case "SIGKILLed worker is replayed" `Slow
            test_campaign_kill_worker;
          Alcotest.test_case "only worker killed: every shard replayed" `Quick
            test_campaign_only_worker_killed;
          Alcotest.test_case "replays stop at the retry bound" `Quick
            test_campaign_retries_bound;
          Alcotest.test_case "tracing leaves the merged result alone" `Quick
            test_campaign_trace_neutral;
          Alcotest.test_case "per-shard traces in shard order" `Quick
            test_campaign_traces_in_shard_order;
          Alcotest.test_case "per-shard traces survive a killed worker" `Slow
            test_campaign_traces_survive_kill;
          Alcotest.test_case "worker exits, replays and frame count" `Quick
            test_campaign_accounting;
        ] );
    ]
