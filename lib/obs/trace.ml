type sink = { emit : Event.stamped -> unit; close : unit -> unit }

let emit sink ev = sink.emit ev
let close sink = sink.close ()

let jsonl oc =
  {
    emit =
      (fun ev ->
        output_string oc (Event.to_json_line ev);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let buffer () =
  let buf = Buffer.create 4096 in
  ( {
      emit =
        (fun ev ->
          Buffer.add_string buf (Event.to_json_line ev);
          Buffer.add_char buf '\n');
      close = (fun () -> ());
    },
    fun () -> Buffer.contents buf )

(* {1 Chrome trace_event conversion}

   Writes the JSON-array flavour of the trace_event format, loadable in
   chrome://tracing and Perfetto; `trace-report --chrome' replays a
   JSONL trace through it. Executions become complete ("X")
   spans, valid inputs instant events, and each execution's coverage
   and queue depth two counter tracks. Everything but the format's own
   fields goes under [args], where viewers read a counter's series, a
   metadata event's name and an event's details. *)

let chrome oc =
  let first = ref true in
  let entry fields args =
    if !first then first := false else output_string oc ",\n";
    output_string oc
      (if args = [] then Json.flat_to_string fields
       else Json.nested_to_string fields "args" args)
  in
  let us ns = float_of_int ns /. 1e3 in
  let open Json in
  output_string oc "[\n";
  let base = [ ("pid", I 1); ("tid", I 1) ] in
  let emit (s : Event.stamped) =
    match s.ev with
    | Event.Run_meta m ->
      entry
        ([ ("name", S "process_name"); ("ph", S "M") ] @ base)
        [ ("name", S (Printf.sprintf "pfuzzer %s seed %d" m.subject m.seed)) ]
    | Event.Cell c ->
      entry
        ([ ("name", S "cell"); ("ph", S "i"); ("ts", F (us s.t_ns)); ("s", S "g") ]
        @ base)
        [ ("tool", S c.tool); ("subject", S c.subject); ("seed", I c.seed) ]
    | Event.Exec_done e ->
      entry
        ([
           ("name", S "exec");
           ("ph", S "X");
           ("ts", F (us (s.t_ns - e.dur_ns)));
           ("dur", F (us e.dur_ns));
         ]
        @ base)
        [
          ("n", I s.exec);
          ("verdict", S e.verdict);
          ("valid", B e.valid);
        ];
      entry
        ([ ("name", S "coverage"); ("ph", S "C"); ("ts", F (us s.t_ns)) ] @ base)
        [ ("branches", I e.cov) ];
      entry
        ([ ("name", S "queue_depth"); ("ph", S "C"); ("ts", F (us s.t_ns)) ] @ base)
        [ ("depth", I e.depth) ]
    | Event.Valid v ->
      entry
        ([ ("name", S "valid"); ("ph", S "i"); ("ts", F (us s.t_ns)); ("s", S "g") ]
        @ base)
        [ ("input", S v.input); ("count", I v.count) ]
    | Event.Phases p ->
      let phase_names = List.map Phase.name Phase.all in
      List.iter
        (fun (name, ns) ->
          if List.mem name phase_names then
            entry
              [
                ("name", S ("phase:" ^ name));
                ("ph", S "X");
                ("ts", F 0.0);
                ("dur", F (us ns));
                ("pid", I 1);
                ("tid", I 2);
              ]
              [])
        p.spans;
      ignore p.wall_ns
    | _ -> ()
  in
  { emit; close = (fun () -> output_string oc "\n]\n"; flush oc) }

(* {1 Reading and normalizing} *)

(* Kinds that older builds emitted and this build no longer has: seven
   search-loop events (the queue's push and pop were read only for a
   depth that [exec_done] now carries), the prefix cache's hits, misses
   and cold re-execution of a crashed resume, the campaign
   coordinator's shard plan and worker lifecycle, the live line's
   periodic status sample and the fuzzer's own fault hook. Their lines
   are skipped, so those traces still load; any other kind this build
   does not know is an error. *)
let retired =
  [
    "exec_start"; "queue_rerank"; "queue_trunc"; "queue_push"; "queue_pop";
    "cache_evict"; "cache_hit"; "cache_miss"; "reset"; "rescue"; "shard";
    "worker_spawn"; "worker_frame"; "worker_exit"; "snapshot"; "fault";
  ]

let is_retired line =
  match List.assoc_opt "ev" (Json.parse_flat line) with
  | Some (Json.S kind) -> List.mem kind retired
  | _ -> false
  | exception Json.Malformed _ -> false

let read_channel ic =
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | "" -> go acc (lineno + 1)
    | line ->
      (match Event.of_json_line line with
       | ev -> go (ev :: acc) (lineno + 1)
       | exception Json.Malformed _ when is_retired line -> go acc (lineno + 1)
       | exception Json.Malformed m ->
         failwith (Printf.sprintf "trace line %d: %s" lineno m))
  in
  go [] 1

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

(* Zero every wall-clock-dependent field of one JSONL line, leaving the
   structural content: the jobs:1 ≡ jobs:N merged-trace determinism
   check compares normalized lines. Non-JSON lines pass through. *)
let is_timing_key k =
  k = "t" || k = "execs_per_sec"
  || (String.length k > 3 && String.sub k (String.length k - 3) 3 = "_ns")

let normalize_line line =
  match Json.parse_flat line with
  | exception Json.Malformed _ -> line
  | fields ->
    Json.flat_to_string
      (List.map
         (fun (k, v) ->
           if is_timing_key k then
             (k, match v with Json.F _ -> Json.F 0.0 | _ -> Json.I 0)
           else (k, v))
         fields)

let normalize s =
  String.split_on_char '\n' s |> List.map normalize_line |> String.concat "\n"
