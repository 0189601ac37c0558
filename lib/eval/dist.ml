module Pfuzzer = Pdf_core.Pfuzzer
module Rng = Pdf_util.Rng
module Atomic_file = Pdf_util.Atomic_file
module Subject = Pdf_subjects.Subject
module Observer = Pdf_obs.Observer
module Trace = Pdf_obs.Trace
module Metrics = Pdf_obs.Metrics

(* {1 Shard plan} *)

type shard = { shard_id : int; shard_seed : int; shard_budget : int }
type plan = { base : Pfuzzer.config; shards : shard list }

let plan ?(shards = 4) (config : Pfuzzer.config) =
  if shards < 1 then invalid_arg "Dist.plan: shards must be positive";
  let s = max 1 (min shards config.max_executions) in
  let rng = Rng.make config.seed in
  let base = config.max_executions / s in
  let extra = config.max_executions mod s in
  (* Explicit recursion: each seed is the next SplitMix64 draw, so the
     draws must happen in shard order. *)
  let rec build i acc =
    if i = s then List.rev acc
    else
      let seed = Int64.to_int (Rng.bits64 rng) land max_int in
      let budget = base + if i < extra then 1 else 0 in
      build (i + 1) ({ shard_id = i; shard_seed = seed; shard_budget = budget } :: acc)
  in
  { base = config; shards = build 0 [] }

let shard_config p sh =
  { p.base with Pfuzzer.seed = sh.shard_seed; max_executions = sh.shard_budget }

let shard_offsets p =
  let n = List.length p.shards in
  let offsets = Array.make n 0 in
  let acc = ref 0 in
  List.iter
    (fun sh ->
      offsets.(sh.shard_id) <- !acc;
      acc := !acc + sh.shard_budget)
    p.shards;
  offsets

(* Timing is scheduling-dependent; everything a frame carries must be a
   pure function of the shard, so final results are scrubbed before
   they are encoded. *)
let scrub (r : Pfuzzer.result) = { r with wall_clock_s = 0.0; execs_per_sec = 0.0 }

(* {1 Sync frames} *)

module Frame = struct
  type t = {
    shard : int;
    seq : int;
    final : bool;
    result : Pfuzzer.result;
    (* Workers send [None]; the field keeps the v6 layout. *)
    metrics : Metrics.snapshot option;
  }

  (* v2: frames carry an optional metrics snapshot.
     v3: [Pfuzzer.result] lost its [engine] field.
     v4: [Metrics.snapshot] lost its [gauges] field.
     v5: [Pfuzzer.cache_stats] lost its crashed-resume counter.
     v6: [Metrics.snapshot] lost its [origin] and [clock] fields.
     Frames only ever cross a pipe between a coordinator and the workers
     it forked — both ends are the same binary — so a bump is hygiene
     against a stale reader. *)
  let envelope =
    { Pdf_util.Envelope.magic = "pfsync"; version = 6; noun = "sync frame" }

  (* Frames cross a pipe, not a filesystem: anything claiming to be
     larger than this is a corrupted length prefix, not a real frame. *)
  let max_body = 1 lsl 28

  let encode_body (t : t) = Pdf_util.Envelope.encode envelope t

  let encode t =
    let body = encode_body t in
    let n = String.length body in
    let b = Bytes.create (4 + n) in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.blit_string body 0 b 4 n;
    Bytes.unsafe_to_string b

  let decode_body s : (t, string) result =
    Pdf_util.Envelope.decode envelope s ~pos:0 ~len:(String.length s)

  module Decoder = struct
    type frame = t

    type status = Alive | Dead

    type t = {
      mutable pending : string;
      mutable off : int;
      mutable status : status;
    }

    let create () = { pending = ""; off = 0; status = Alive }

    let feed d chunk n =
      match d.status with
      | Dead -> ()
      | Alive ->
        let keep = String.length d.pending - d.off in
        let b = Bytes.create (keep + n) in
        Bytes.blit_string d.pending d.off b 0 keep;
        Bytes.blit chunk 0 b keep n;
        d.pending <- Bytes.unsafe_to_string b;
        d.off <- 0

    let next d : [ `Frame of frame | `Reject of string | `Await ] =
      match d.status with
      | Dead -> `Await
      | Alive ->
        let avail = String.length d.pending - d.off in
        if avail < 4 then `Await
        else
          let n = Int32.to_int (String.get_int32_be d.pending d.off) land 0xFFFF_FFFF in
          if n > max_body then begin
            (* A garbage length prefix leaves nothing to resynchronise
               on: the stream is dead, its owner will be replayed. *)
            d.status <- Dead;
            `Reject (Printf.sprintf "sync frame length implausible (%d bytes)" n)
          end
          else if avail < 4 + n then `Await
          else begin
            let pos = d.off + 4 in
            d.off <- pos + n;
            match
              (Pdf_util.Envelope.decode envelope d.pending ~pos ~len:n
                : (frame, string) result)
            with
            | Ok f -> `Frame f
            | Error e -> `Reject e
          end

    let finish d =
      match d.status with
      | Dead -> None
      | Alive ->
        let avail = String.length d.pending - d.off in
        if avail = 0 then None
        else if avail < 4 then
          Some "truncated sync frame (incomplete length prefix)"
        else Some "truncated sync frame (body shorter than declared length)"
  end
end

(* {1 Slots} *)

module Slots = struct
  type t = { shards : shard list; slots : Frame.t option array }

  let create (p : plan) =
    { shards = p.shards; slots = Array.make (List.length p.shards) None }

  (* A shard's owner sends one frame for it, its final, over one FIFO
     pipe, and a shard is replayed only after that pipe reached EOF
     without the final, so a final arrives at most once; a second would
     change nothing. *)
  let add t (f : Frame.t) =
    let n = Array.length t.slots in
    if f.shard < 0 || f.shard >= n then
      Error (Printf.sprintf "sync frame for shard %d, outside the %d-shard plan" f.shard n)
    else if not f.final then
      Error (Printf.sprintf "sync frame for shard %d is not a final" f.shard)
    else begin
      if Option.is_none t.slots.(f.shard) then t.slots.(f.shard) <- Some f;
      Ok ()
    end

  let finals t = List.filter_map Fun.id (Array.to_list t.slots)
  let missing t = List.filter (fun sh -> Option.is_none t.slots.(sh.shard_id)) t.shards
end

(* {1 Result merge} *)

let sum_cache (a : Pfuzzer.cache_stats) (b : Pfuzzer.cache_stats) =
  {
    Pfuzzer.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    chars_saved = a.chars_saved + b.chars_saved;
  }

let merge_results p (results : Pfuzzer.result list) =
  let n = List.length p.shards in
  if List.length results <> n then
    invalid_arg "Dist.merge_results: one result per plan shard required";
  let offsets = shard_offsets p in
  let results = Array.of_list results in
  (* Valid inputs: shard-order concatenation, first occurrence wins. *)
  let seen = Hashtbl.create 64 in
  let valid_rev = ref [] in
  Array.iter
    (fun (r : Pfuzzer.result) ->
      List.iter
        (fun input ->
          if not (Hashtbl.mem seen input) then begin
            Hashtbl.add seen input ();
            valid_rev := input :: !valid_rev
          end)
        r.valid_inputs)
    results;
  (* Crashes: re-keyed by identity; the first sighting in shard order is
     also the earliest on the global clock (shard ranges are disjoint
     and increasing), so it keeps the witness input and [first_at]. *)
  let crash_tbl : (string * int, Pfuzzer.crash) Hashtbl.t = Hashtbl.create 16 in
  let crash_order = ref [] in
  Array.iteri
    (fun i (r : Pfuzzer.result) ->
      List.iter
        (fun (c : Pfuzzer.crash) ->
          let key = (c.exn, c.site) in
          match Hashtbl.find_opt crash_tbl key with
          | None ->
            Hashtbl.add crash_tbl key { c with first_at = offsets.(i) + c.first_at };
            crash_order := key :: !crash_order
          | Some prev ->
            Hashtbl.replace crash_tbl key { prev with count = prev.count + c.count })
        r.crashes)
    results;
  let fold f init = Array.fold_left f init results in
  let first_valid_at =
    let best = ref None in
    Array.iteri
      (fun i (r : Pfuzzer.result) ->
        match r.first_valid_at with
        | None -> ()
        | Some at ->
          let g = offsets.(i) + at in
          (match !best with Some b when b <= g -> () | _ -> best := Some g))
      results;
    !best
  in
  {
    Pfuzzer.valid_inputs = List.rev !valid_rev;
    valid_coverage =
      fold
        (fun acc (r : Pfuzzer.result) ->
          Pdf_instr.Coverage.union acc r.valid_coverage)
        Pdf_instr.Coverage.empty;
    hits =
      fold
        (fun acc (r : Pfuzzer.result) -> Pdf_instr.Hits.merge acc r.hits)
        (Pdf_instr.Hits.create ());
    executions = fold (fun acc (r : Pfuzzer.result) -> acc + r.executions) 0;
    candidates_created =
      fold (fun acc (r : Pfuzzer.result) -> acc + r.candidates_created) 0;
    queue_peak = fold (fun acc (r : Pfuzzer.result) -> max acc r.queue_peak) 0;
    first_valid_at;
    dedupe_resets = fold (fun acc (r : Pfuzzer.result) -> acc + r.dedupe_resets) 0;
    path_resets = fold (fun acc (r : Pfuzzer.result) -> acc + r.path_resets) 0;
    cache =
      fold
        (fun acc (r : Pfuzzer.result) -> sum_cache acc r.cache)
        Pfuzzer.no_cache_stats;
    crashes =
      List.map (fun key -> Hashtbl.find crash_tbl key) (List.rev !crash_order);
    crash_total = fold (fun acc (r : Pfuzzer.result) -> acc + r.crash_total) 0;
    hangs = fold (fun acc (r : Pfuzzer.result) -> acc + r.hangs) 0;
    wall_clock_s = 0.0;
    execs_per_sec = 0.0;
  }

(* The campaign result, once every slot holds its shard's final. *)
let merge_finals p slots =
  merge_results p (List.map (fun (f : Frame.t) -> f.result) (Slots.finals slots))

(* {1 Shard execution (shared by workers and the reference)} *)

let run_shard ?obs p subject sh = Pfuzzer.fuzz ?obs (shard_config p sh) subject

let final_frame sh result =
  {
    Frame.shard = sh.shard_id;
    seq = sh.shard_budget + 1;
    final = true;
    result = scrub result;
    metrics = None;
  }

let reference ?shards config subject =
  let p = plan ?shards config in
  merge_results p (List.map (fun sh -> scrub (run_shard p subject sh)) p.shards)

(* In-process re-enactment of an N-worker campaign: same shard plan,
   same round-robin assignment, and the full wire path (encode, chunked
   decode, slots) — only the fork is missing. This is the fallback when
   the process has already spawned domains, which OCaml 5 forbids
   mixing with [Unix.fork]. *)
let simulate_campaign ?shards ~workers config subject =
  let p = plan ?shards config in
  let nspawn = min (max 1 workers) (List.length p.shards) in
  let stream w_id =
    let buf = Buffer.create 4096 in
    List.iter
      (fun sh ->
        if sh.shard_id mod nspawn = w_id then
          Buffer.add_string buf (Frame.encode (final_frame sh (run_shard p subject sh))))
      p.shards;
    Buffer.contents buf
  in
  let streams = Array.init nspawn stream in
  let pos = Array.make nspawn 0 in
  let decs = Array.init nspawn (fun _ -> Frame.Decoder.create ()) in
  let slots = Slots.create p in
  let fail reason = failwith ("Dist.simulate_campaign: " ^ reason) in
  (* Interleave the worker streams in odd-sized chunks so frames arrive
     split across reads, as they do from a real pipe. *)
  let chunk = 4093 in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun w s ->
        let len = String.length s - pos.(w) in
        if len > 0 then begin
          progress := true;
          let n = min chunk len in
          Frame.Decoder.feed decs.(w)
            (Bytes.of_string (String.sub s pos.(w) n))
            n;
          pos.(w) <- pos.(w) + n;
          let rec drain () =
            match Frame.Decoder.next decs.(w) with
            | `Frame f ->
              Result.iter_error fail (Slots.add slots f);
              drain ()
            | `Reject reason -> fail reason
            | `Await -> ()
          in
          drain ()
        end)
      streams
  done;
  merge_finals p slots

(* {1 Worker processes} *)

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let shard_trace_path dir sh = Filename.concat dir (Printf.sprintf "shard%04d.jsonl" sh.shard_id)

(* Runs inside the forked child: execute the assigned shards in
   ascending order, writing each one's final frame to [fd]. Only a
   traced campaign attaches an observer; its telemetry is buffered
   in-process and dropped into [trace_dir] at shard end, so the
   coordinator can concatenate the streams in shard order. *)
let worker_main ~fd ~trace_dir p subject shards =
  List.iter
    (fun sh ->
      let buffered = Option.map (fun dir -> (dir, Trace.buffer ())) trace_dir in
      let obs =
        Option.map
          (fun (_, (sink, _)) -> Observer.create ~sink ~metrics:(Metrics.create ()) ())
          buffered
      in
      let result = run_shard ?obs p subject sh in
      Option.iter
        (fun (dir, (_, contents)) ->
          Atomic_file.write_string (shard_trace_path dir sh) (contents ()))
        buffered;
      let s = Frame.encode (final_frame sh result) in
      write_all fd (Bytes.unsafe_of_string s) 0 (String.length s))
    shards

(* {1 The coordinator} *)

type outcome = {
  result : Pfuzzer.result;
  o_plan : plan;
  workers : int;
  frames_accepted : int;
  frames_rejected : (int * string) list;
  replays : int;
  worker_status : (int * string) list;
  shard_traces : string list;
  wall_clock_s : float;
}

type wrec = {
  w_id : int;
  w_pid : int;
  w_fd : Unix.file_descr;
  w_dec : Frame.Decoder.t;
}

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit:%d" c
  | Unix.WSIGNALED s ->
    (* OCaml numbers signals internally; report the conventional POSIX
       number for the ones a campaign can realistically meet. *)
    let posix =
      if s = Sys.sigkill then 9
      else if s = Sys.sigterm then 15
      else if s = Sys.sigint then 2
      else if s = Sys.sigsegv then 11
      else if s = Sys.sigpipe then 13
      else abs s
    in
    Printf.sprintf "signal:%d" posix
  | Unix.WSTOPPED s -> Printf.sprintf "stopped:%d" s

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let rec read_eintr fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_eintr fd buf

let run_campaign ?(workers = 2) ?shards ?(retries = 2) ?(trace = false) ?kill_worker
    config subject =
  let t0 = Unix.gettimeofday () in
  let p = plan ?shards config in
  let trace_dir = if trace then Some (Filename.temp_dir "pfdist" "") else None in
  let slots = Slots.create p in
  let accepted = ref 0 in
  let rejected = ref [] in
  let statuses = ref [] in
  let replays = ref 0 in
  let spawn ~extra_close w_id shards =
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      (* Child: sees only its own write end. [_exit], not [exit] — the
         parent's at_exit handlers and channel buffers are not ours to
         run or flush. The kill drill's worker dies here, before it
         runs a shard, so every shard it owns is replayed. *)
      (try
         if kill_worker = Some w_id then Unix.kill (Unix.getpid ()) Sys.sigkill;
         Unix.close r;
         List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) extra_close;
         worker_main ~fd:w ~trace_dir p subject shards;
         Unix.close w;
         Unix._exit 0
       with _ -> Unix._exit 3)
    | pid ->
      Unix.close w;
      { w_id; w_pid = pid; w_fd = r; w_dec = Frame.Decoder.create () }
  in
  let on_reject w reason = rejected := (w.w_id, reason) :: !rejected in
  let rec drain w =
    match Frame.Decoder.next w.w_dec with
    | `Frame f ->
      (match Slots.add slots f with
       | Error reason -> on_reject w reason
       | Ok () -> incr accepted);
      drain w
    | `Reject reason ->
      on_reject w reason;
      drain w
    | `Await -> ()
  in
  let buf = Bytes.create 65536 in
  (* Read every live pipe until all workers reach EOF. Each pipe carries
     one owner's frames in order; the interleaving across pipes is the
     kernel's and does not matter, since every shard has its own slot. *)
  let rec supervise live =
    match live with
    | [] -> ()
    | _ -> (
      match Unix.select (List.map (fun w -> w.w_fd) live) [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> supervise live
      | ready, _, _ ->
        let live =
          List.filter
            (fun w ->
              if not (List.mem w.w_fd ready) then true
              else begin
                let n = read_eintr w.w_fd buf in
                if n > 0 then begin
                  Frame.Decoder.feed w.w_dec buf n;
                  drain w;
                  true
                end
                else begin
                  (match Frame.Decoder.finish w.w_dec with
                   | Some reason -> on_reject w reason
                   | None -> ());
                  Unix.close w.w_fd;
                  statuses := (w.w_id, status_string (waitpid_eintr w.w_pid)) :: !statuses;
                  false
                end
              end)
            live
        in
        supervise live)
  in
  (* Initial fleet: shards dealt round-robin across the worker count. *)
  let nworkers = max 1 workers in
  let nspawn = min nworkers (List.length p.shards) in
  let assignment w_id =
    List.filter (fun sh -> sh.shard_id mod nspawn = w_id) p.shards
  in
  let fleet = ref [] in
  for w_id = 0 to nspawn - 1 do
    let extra_close = List.map (fun w -> w.w_fd) !fleet in
    fleet := spawn ~extra_close w_id (assignment w_id) :: !fleet
  done;
  supervise (List.rev !fleet);
  (* Replay rounds: shards whose final frame never arrived get a fresh
     worker, [retries] times — the process-level analogue of
     [Parallel.map_retry]'s bounded sequential retries. *)
  let next_id = ref nspawn in
  let attempt = ref 0 in
  let rec replay () =
    match Slots.missing slots with
    | [] -> ()
    | miss ->
      incr attempt;
      if !attempt > retries then
        failwith
          (Printf.sprintf
             "dist: shard(s) %s produced no final frame after %d replay round(s)"
             (String.concat ", "
                (List.map (fun sh -> string_of_int sh.shard_id) miss))
             retries);
      replays := !replays + List.length miss;
      let w = spawn ~extra_close:[] !next_id miss in
      incr next_id;
      supervise [ w ];
      replay ()
  in
  replay ();
  let shard_traces =
    match trace_dir with
    | None -> []
    | Some dir ->
      let streams =
        List.map (fun sh -> Atomic_file.read_string (shard_trace_path dir sh)) p.shards
      in
      List.iter
        (fun sh -> try Sys.remove (shard_trace_path dir sh) with Sys_error _ -> ())
        p.shards;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      streams
  in
  {
    result = merge_finals p slots;
    o_plan = p;
    workers = nworkers;
    frames_accepted = !accepted;
    frames_rejected = List.rev !rejected;
    replays = !replays;
    worker_status = List.rev !statuses;
    shard_traces;
    wall_clock_s = Unix.gettimeofday () -. t0;
  }
