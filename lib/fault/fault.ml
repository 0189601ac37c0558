module Rng = Pdf_util.Rng

exception Injected of string

type kind =
  | Raise of string
  | Starve_fuel
  | Slow of int

let kind_label = function
  | Raise _ -> "raise"
  | Starve_fuel -> "starve_fuel"
  | Slow _ -> "slow"

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
    (* Sample without replacement so [count] distinct executions fault. *)
    let attempts = ref 0 in
    while Hashtbl.length faults < min count executions && !attempts < count * 64 do
      incr attempts;
      (* Index 0 is the campaign's very first execution; keep it faultable. *)
      let index = Rng.int rng executions in
      if not (Hashtbl.mem faults index) then
        Hashtbl.replace faults index ((Rng.choose rng seeded_kinds) rng)
    done;
    { faults; triggered_rev = [] }
  end

let consume plan index =
  match Hashtbl.find_opt plan.faults index with
  | None -> None
  | Some kind as hit ->
    plan.triggered_rev <- (index, kind) :: plan.triggered_rev;
    hit

let triggered plan = List.rev plan.triggered_rev
