type name = Afl | Klee | Pfuzzer

let all = [ Afl; Klee; Pfuzzer ]

let display_name = function Afl -> "AFL" | Klee -> "KLEE" | Pfuzzer -> "pFuzzer"

let of_string s =
  match String.lowercase_ascii s with
  | "afl" -> Some Afl
  | "klee" -> Some Klee
  | "pfuzzer" -> Some Pfuzzer
  | _ -> None

let cost_per_execution = function Afl -> 1 | Klee -> 100 | Pfuzzer -> 100

type outcome = {
  tool : name;
  subject : string;
  valid_inputs : string list;
  valid_coverage : Pdf_instr.Coverage.t;
  executions : int;
  crashes : Pdf_core.Pfuzzer.crash list;
  crash_total : int;
  hangs : int;
  wall_clock_s : float;
  execs_per_sec : float;
}

let empty_outcome tool ~subject =
  {
    tool;
    subject;
    valid_inputs = [];
    valid_coverage = Pdf_instr.Coverage.empty;
    executions = 0;
    crashes = [];
    crash_total = 0;
    hangs = 0;
    wall_clock_s = 0.0;
    execs_per_sec = 0.0;
  }

let throughput ~executions wall_clock_s =
  if wall_clock_s <= 0.0 then 0.0 else float_of_int executions /. wall_clock_s

let run ?obs ?checkpoint_every ?on_checkpoint ?resume_from ?on_execution tool
    ~budget_units ~seed subject =
  let max_executions = max 1 (budget_units / cost_per_execution tool) in
  match tool with
  | Afl ->
    let t0 = Pdf_obs.Clock.now_ns () in
    let result =
      Pdf_afl.Afl.fuzz { Pdf_afl.Afl.default_config with seed; max_executions } subject
    in
    let wall_clock_s = float_of_int (Pdf_obs.Clock.now_ns () - t0) /. 1e9 in
    {
      tool;
      subject = subject.Pdf_subjects.Subject.name;
      valid_inputs = result.valid_inputs;
      valid_coverage = result.valid_coverage;
      executions = result.executions;
      crashes = [];
      crash_total = 0;
      hangs = 0;
      wall_clock_s;
      execs_per_sec = throughput ~executions:result.executions wall_clock_s;
    }
  | Klee ->
    let t0 = Pdf_obs.Clock.now_ns () in
    let result =
      Pdf_klee.Klee.fuzz
        { Pdf_klee.Klee.default_config with seed; max_executions }
        subject
    in
    let wall_clock_s = float_of_int (Pdf_obs.Clock.now_ns () - t0) /. 1e9 in
    {
      tool;
      subject = subject.Pdf_subjects.Subject.name;
      valid_inputs = result.valid_inputs;
      valid_coverage = result.valid_coverage;
      executions = result.executions;
      crashes = [];
      crash_total = 0;
      hangs = 0;
      wall_clock_s;
      execs_per_sec = throughput ~executions:result.executions wall_clock_s;
    }
  | Pfuzzer ->
    let result =
      match resume_from with
      | Some checkpoint ->
        Pdf_core.Pfuzzer.resume_from ?obs ?checkpoint_every
          ?on_checkpoint ?on_execution checkpoint subject
      | None ->
        let config =
          { Pdf_core.Pfuzzer.default_config with seed; max_executions }
        in
        Pdf_core.Pfuzzer.fuzz ?obs ?checkpoint_every ?on_checkpoint
          ?on_execution config subject
    in
    {
      tool;
      subject = subject.Pdf_subjects.Subject.name;
      valid_inputs = result.valid_inputs;
      valid_coverage = result.valid_coverage;
      executions = result.executions;
      crashes = result.crashes;
      crash_total = result.crash_total;
      hangs = result.hangs;
      wall_clock_s = result.wall_clock_s;
      execs_per_sec = result.execs_per_sec;
    }
