type t =
  | Run_meta of {
      subject : string;
      outcomes : int;
      seed : int;
      max_executions : int;
      sample : int;
    }
  | Cell of { tool : string; subject : string; seed : int }
  | Exec_done of {
      dur_ns : int;
      verdict : string;
      sub_index : int;
      cov : int;
      cov_delta : int;
      valid : bool;
      len : int;
      depth : int;
    }
  | Valid of { input : string; cov : int; count : int }
  | Hang of { total : int }
  | Crash of { exn : string; site : int; fresh : bool; total : int }
  | Retry of { what : string; attempt : int; detail : string }
  | Phases of { spans : (string * int) list; wall_ns : int }
  | Run_done of { valid : int; cov : int; wall_ns : int; execs_per_sec : float }

type stamped = { t_ns : int; exec : int; ev : t }

let kind = function
  | Run_meta _ -> "run_meta"
  | Cell _ -> "cell"
  | Exec_done _ -> "exec_done"
  | Valid _ -> "valid"
  | Hang _ -> "hang"
  | Crash _ -> "crash"
  | Retry _ -> "retry"
  | Phases _ -> "phases"
  | Run_done _ -> "run_done"

(* Payload fields, in the order they are serialized. Span totals in
   [Phases] serialize as one field per span named [<span>_ns], so the
   schema stays flat. *)
let fields ev =
  let open Json in
  match ev with
  | Run_meta m ->
    [
      ("subject", S m.subject);
      ("outcomes", I m.outcomes);
      ("seed", I m.seed);
      ("max_executions", I m.max_executions);
      ("sample", I m.sample);
    ]
  | Cell c -> [ ("tool", S c.tool); ("subject", S c.subject); ("seed", I c.seed) ]
  | Exec_done e ->
    [
      ("dur_ns", I e.dur_ns);
      ("verdict", S e.verdict);
      ("sub", I e.sub_index);
      ("cov", I e.cov);
      ("cov_delta", I e.cov_delta);
      ("valid", B e.valid);
      ("len", I e.len);
      ("depth", I e.depth);
    ]
  | Valid v -> [ ("input", S v.input); ("cov", I v.cov); ("count", I v.count) ]
  | Hang h -> [ ("total", I h.total) ]
  | Crash c ->
    [
      ("exn", S c.exn);
      ("site", I c.site);
      ("fresh", B c.fresh);
      ("total", I c.total);
    ]
  | Retry r ->
    [ ("what", S r.what); ("attempt", I r.attempt); ("detail", S r.detail) ]
  | Phases p ->
    List.map (fun (name, ns) -> (name ^ "_ns", Json.I ns)) p.spans
    @ [ ("wall_ns", I p.wall_ns) ]
  | Run_done r ->
    [
      ("valid", I r.valid);
      ("cov", I r.cov);
      ("wall_ns", I r.wall_ns);
      ("execs_per_sec", F r.execs_per_sec);
    ]

let to_json_line { t_ns; exec; ev } =
  Json.flat_to_string
    ([ ("ev", Json.S (kind ev)); ("t", Json.I t_ns); ("n", Json.I exec) ]
    @ fields ev)

(* {1 Parsing} *)

let get fields k = List.assoc_opt k fields

let int_field fields k =
  match get fields k with
  | Some (Json.I i) -> i
  | _ -> Json.fail "missing int field %S" k

let str_field fields k =
  match get fields k with
  | Some (Json.S s) -> s
  | _ -> Json.fail "missing string field %S" k

let bool_field fields k =
  match get fields k with
  | Some (Json.B b) -> b
  | _ -> Json.fail "missing bool field %S" k

(* Traces written before a field existed parse with its default, so old
   traces keep loading across schema growth ([sample] and [exec_done]'s
   [depth] arrived after the first release of the format). Fields a
   trace carries that this build no longer knows are ignored, such as
   [run_meta]'s [incremental] and [exec_done]'s [cached] from builds
   that ran a prefix cache. *)
let int_field_default fields k default =
  match get fields k with Some (Json.I i) -> i | _ -> default

(* JSON has one number type: an integral float serializes without a
   fractional part only sometimes, so accept either shape for floats. *)
let float_field fields k =
  match get fields k with
  | Some (Json.F f) -> f
  | Some (Json.I i) -> float_of_int i
  | _ -> Json.fail "missing float field %S" k

let of_fields fields =
  let f = fields in
  let ev =
    match str_field f "ev" with
    | "run_meta" ->
      Run_meta
        {
          subject = str_field f "subject";
          outcomes = int_field f "outcomes";
          seed = int_field f "seed";
          max_executions = int_field f "max_executions";
          sample = int_field_default f "sample" 1;
        }
    | "cell" ->
      Cell
        {
          tool = str_field f "tool";
          subject = str_field f "subject";
          seed = int_field f "seed";
        }
    | "exec_done" ->
      Exec_done
        {
          dur_ns = int_field f "dur_ns";
          verdict = str_field f "verdict";
          sub_index = int_field f "sub";
          cov = int_field f "cov";
          cov_delta = int_field f "cov_delta";
          valid = bool_field f "valid";
          len = int_field f "len";
          depth = int_field_default f "depth" 0;
        }
    | "valid" ->
      Valid
        {
          input = str_field f "input";
          cov = int_field f "cov";
          count = int_field f "count";
        }
    | "hang" -> Hang { total = int_field f "total" }
    | "crash" ->
      Crash
        {
          exn = str_field f "exn";
          site = int_field f "site";
          fresh = bool_field f "fresh";
          total = int_field f "total";
        }
    | "retry" ->
      Retry
        {
          what = str_field f "what";
          attempt = int_field f "attempt";
          detail = str_field f "detail";
        }
    | "phases" ->
      let spans =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.I ns
              when k <> "wall_ns" && k <> "t"
                   && String.length k > 3
                   && String.sub k (String.length k - 3) 3 = "_ns" ->
              Some (String.sub k 0 (String.length k - 3), ns)
            | _ -> None)
          f
      in
      Phases { spans; wall_ns = int_field f "wall_ns" }
    | "run_done" ->
      Run_done
        {
          valid = int_field f "valid";
          cov = int_field f "cov";
          wall_ns = int_field f "wall_ns";
          execs_per_sec = float_field f "execs_per_sec";
        }
    | k -> Json.fail "unknown event kind %S" k
  in
  { t_ns = int_field f "t"; exec = int_field f "n"; ev }

let of_json_line line = of_fields (Json.parse_flat line)
