module Rng = Pdf_util.Rng
module Subject = Pdf_subjects.Subject

exception Injected of string

type kind =
  | Raise of string
  | Starve_fuel
  | Slow of int

type plan = { faults : (int, kind) Hashtbl.t; mutable triggered_rev : (int * kind) list }

let empty () = { faults = Hashtbl.create 0; triggered_rev = [] }

let of_list bindings =
  let faults = Hashtbl.create (List.length bindings) in
  List.iter
    (fun (index, kind) ->
      if index < 0 then invalid_arg "Fault.of_list: negative execution index";
      Hashtbl.replace faults index kind)
    bindings;
  { faults; triggered_rev = [] }

let seeded_kinds =
  [|
    (fun _rng -> Raise "injected fault");
    (fun _rng -> Starve_fuel);
    (fun rng -> Slow (1_000 + Rng.int rng 10_000));
  |]

let seeded ~seed ~executions ~count =
  if executions <= 0 || count <= 0 then empty ()
  else begin
    let rng = Rng.make (0x7a17 lxor seed) in
    let faults = Hashtbl.create count in
    (* Sample without replacement so [count] distinct executions fault,
       and deal the kinds round-robin, so that a plan of three or more
       faults holds every kind. *)
    let attempts = ref 0 in
    while Hashtbl.length faults < min count executions && !attempts < count * 64 do
      incr attempts;
      (* Index 0 is the campaign's very first execution; keep it faultable. *)
      let index = Rng.int rng executions in
      if not (Hashtbl.mem faults index) then begin
        let deal = seeded_kinds.(Hashtbl.length faults mod Array.length seeded_kinds) in
        Hashtbl.replace faults index (deal rng)
      end
    done;
    { faults; triggered_rev = [] }
  end

(* Busy-wait used by [Slow] faults: deterministic work the optimizer
   cannot delete, with no observable effect besides wall clock. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc)

(* [Starve_fuel] raises [Out_of_fuel] before the parse makes any
   progress: a guaranteed [Hang] for every subject, including those
   whose parsers never consume fuel themselves. *)
let subject plan (s : Subject.t) =
  let calls = ref 0 in
  let parse ctx =
    let index = !calls in
    incr calls;
    match Hashtbl.find_opt plan.faults index with
    | None -> s.parse ctx
    | Some kind -> (
      plan.triggered_rev <- (index, kind) :: plan.triggered_rev;
      match kind with
      | Raise msg -> raise (Injected msg)
      | Starve_fuel -> raise Pdf_instr.Ctx.Out_of_fuel
      | Slow n ->
        spin n;
        s.parse ctx)
  in
  { s with machine = None; parse }

let triggered plan = List.rev plan.triggered_rev
