module Histogram = Pdf_util.Stats.Histogram

type counter = int ref

type entry =
  | Counter of counter
  | Hist of Histogram.t

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 32 }

let find_or_add t name make cast =
  match Hashtbl.find_opt t.entries name with
  | Some e ->
    (match cast e with
     | Some v -> v
     | None -> invalid_arg (Printf.sprintf "Metrics: %S registered with another type" name))
  | None ->
    let e, v = make () in
    Hashtbl.replace t.entries name e;
    v

let counter t name =
  find_or_add t name
    (fun () ->
      let c = ref 0 in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let add c by = c := !c + by

let histogram t name =
  find_or_add t name
    (fun () ->
      let h = Histogram.create () in
      (Hist h, h))
    (function Hist h -> Some h | _ -> None)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Histogram.t) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot t =
  let cs = ref [] and hs = ref [] in
  Hashtbl.iter
    (fun name -> function
      | Counter c -> cs := (name, !c) :: !cs
      | Hist h -> hs := (name, h) :: !hs)
    t.entries;
  { counters = List.sort by_name !cs; histograms = List.sort by_name !hs }

let sum snapshots =
  let add_counter m (name, v) =
    let prev = try List.assoc name m with Not_found -> 0 in
    (name, prev + v) :: List.remove_assoc name m
  in
  let merge_hist m (name, h) =
    match List.assoc_opt name m with
    | None -> (name, h) :: m
    | Some h0 -> (name, Histogram.merge h0 h) :: List.remove_assoc name m
  in
  let fold f field =
    List.sort by_name
      (List.fold_left (fun m s -> List.fold_left f m (field s)) [] snapshots)
  in
  {
    counters = fold add_counter (fun s -> s.counters);
    histograms = fold merge_hist (fun s -> s.histograms);
  }
