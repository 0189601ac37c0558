module Fault = Pdf_fault.Fault
module Pfuzzer = Pdf_core.Pfuzzer
module Subject = Pdf_subjects.Subject
module Coverage = Pdf_instr.Coverage
module Runner = Pdf_instr.Runner
module Parallel = Pdf_eval.Parallel

(* Distinct execution indices spread across the budget, away from both
   ends so every fault fires before the budget runs out. *)
let spread_indices execs =
  List.sort_uniq compare
    [ execs / 7; execs / 3; execs / 2; 2 * execs / 3; (5 * execs / 6) + 1 ]
  |> List.filter (fun i -> i > 0 && i < execs)

let count_kind p plan =
  List.length (List.filter (fun (_, k) -> p k) (Fault.triggered plan))

let is_raise = function Fault.Raise _ -> true | _ -> false

(* The campaign-level degradation invariants: the budget is exhausted
   (a fault never aborts the loop), every reported valid input is still
   genuinely accepted, and the reported valid coverage is still exactly
   the union of the valid inputs' full coverage. *)
let campaign_intact subject (r : Pfuzzer.result) execs =
  if r.executions <> execs then
    Some (Printf.sprintf "campaign stopped at %d/%d executions" r.executions execs)
  else if not (List.for_all (Subject.accepts subject) r.valid_inputs) then
    Some "a reported valid input is not accepted by the subject"
  else begin
    let union =
      List.fold_left
        (fun acc input ->
          Coverage.union acc (Subject.run subject input).Runner.coverage)
        Coverage.empty r.valid_inputs
    in
    if not (Coverage.equal union r.valid_coverage) then
      Some "valid coverage is no longer the union of the valid inputs' coverage"
    else None
  end

let run ?(execs = 400) ?(seed = 1) (subject : Subject.t) =
  let checks = ref [] in
  let add name ok detail =
    checks := { Invariants.name; ok; detail } :: !checks
  in
  let config = { Pfuzzer.default_config with seed; max_executions = execs } in
  let baseline = Pfuzzer.fuzz config subject in
  (* A seeded mixed-kind plan: the campaign must absorb every fault and
     still satisfy the queue/coverage invariants. *)
  let plan =
    Fault.seeded ~seed ~executions:execs ~count:(max 4 (execs / 20))
  in
  let r = Pfuzzer.fuzz config (Fault.subject plan subject) in
  let fired = List.length (Fault.triggered plan) in
  let raised = count_kind is_raise plan in
  let starved = count_kind (( = ) Fault.Starve_fuel) plan in
  (match campaign_intact subject r execs with
   | Some why -> add "chaos-survival" false why
   | None when fired = 0 ->
     add "chaos-survival" false "no fault fired — plan too sparse for the budget"
   | None when r.crash_total < raised || r.hangs < starved ->
     add "chaos-survival" false
       (Printf.sprintf
          "%d raises and %d starvations fired, but only %d crashes and %d hangs"
          raised starved r.crash_total r.hangs)
   | None ->
     add "chaos-survival" true
       (Printf.sprintf
          "%d injected faults absorbed (%d crashes, %d hangs); %d valid inputs \
           all intact"
          fired r.crash_total r.hangs (List.length r.valid_inputs)));
  (* Injected exceptions: every one must surface as exactly one
     contained crash, and they all share one (exception, site)
     identity, so the corpus stays deduplicated. *)
  let idxs = spread_indices execs in
  let raise_plan =
    Fault.of_list (List.map (fun i -> (i, Fault.Raise "chaos raise")) idxs)
  in
  let r_raise = Pfuzzer.fuzz config (Fault.subject raise_plan subject) in
  let raised = count_kind is_raise raise_plan in
  let contained =
    raised = List.length idxs
    && r_raise.crash_total >= raised
    && (match r_raise.crashes with
        | [ c ] -> c.Pfuzzer.count >= raised
        | _ -> false)
    && campaign_intact subject r_raise execs = None
  in
  add "crash-containment" contained
    (if contained then
       Printf.sprintf
         "%d injected exceptions -> %d contained crashes, 1 deduplicated identity"
         raised r_raise.crash_total
     else
       Printf.sprintf
         "%d/%d faults fired, %d crashes, %d identities"
         raised (List.length idxs) r_raise.crash_total
         (List.length r_raise.crashes));
  (* Fuel starvation must surface as hangs, not as aborts. *)
  let starve_plan =
    Fault.of_list (List.map (fun i -> (i, Fault.Starve_fuel)) idxs)
  in
  let r_starve = Pfuzzer.fuzz config (Fault.subject starve_plan subject) in
  let starved = count_kind (( = ) Fault.Starve_fuel) starve_plan in
  let starve_ok =
    starved = List.length idxs
    && r_starve.hangs >= starved
    && campaign_intact subject r_starve execs = None
  in
  add "starvation-hangs" starve_ok
    (if starve_ok then
       Printf.sprintf "%d starved executions -> %d hangs" starved r_starve.hangs
     else
       Printf.sprintf "%d/%d faults fired but only %d hangs" starved
         (List.length idxs) r_starve.hangs);
  (* Slow executions change nothing but the wall clock. *)
  let slow_plan =
    Fault.of_list (List.map (fun i -> (i, Fault.Slow 20_000)) idxs)
  in
  let r_slow = Pfuzzer.fuzz config (Fault.subject slow_plan subject) in
  let slow_ok = Invariants.results_equal baseline r_slow in
  add "slowdown-neutrality" slow_ok
    (if slow_ok then
       Printf.sprintf "%d slowed executions; campaign bit-identical"
         (count_kind (( = ) (Fault.Slow 20_000)) slow_plan)
     else "slow faults perturbed the campaign");
  (* Worker-domain death in the parallel grid: a task that dies on its
     first attempts is retried to success; one that always dies is
     marked failed without sinking its neighbours. *)
  let attempts = Array.init 8 (fun _ -> Atomic.make 0) in
  let flaky i =
    let a = Atomic.fetch_and_add attempts.(i) 1 in
    if i = 3 && a < 2 then raise (Fault.Injected "worker death");
    i * i
  in
  let recovered =
    Parallel.map_retry ~jobs:3 ~retries:2 flaky (List.init 8 Fun.id)
  in
  let all_ok =
    List.for_all2
      (fun i r -> r = Ok (i * i))
      (List.init 8 Fun.id) recovered
  in
  let abandoned =
    Parallel.map_retry ~jobs:2 ~retries:1
      (fun i -> if i = 1 then raise (Fault.Injected "always dead") else i)
      [ 0; 1; 2 ]
  in
  let marked =
    match abandoned with
    | [ Ok 0; Error (Fault.Injected _); Ok 2 ] -> true
    | _ -> false
  in
  add "worker-death-retry" (all_ok && marked)
    (if all_ok && marked then
       "flaky task recovered by retry; permanently dead task marked failed \
        without sinking the grid"
     else if not all_ok then "a flaky task was not recovered by retries"
     else "a permanently failing task was not isolated correctly");
  { Invariants.subject = subject.Subject.name; checks = List.rev !checks }

let ok = Invariants.ok

let pp_report ppf (r : Invariants.report) =
  Format.fprintf ppf "chaos %s:" r.subject;
  List.iter
    (fun (c : Invariants.check) ->
      Format.fprintf ppf "@.  [%s] %s: %s"
        (if c.ok then "ok" else "FAIL")
        c.name c.detail)
    r.checks
