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
  origin : int;
  clock : int;
  counters : (string * int) list;
  histograms : (string * Histogram.t) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot ?(origin = 0) ?(clock = 0) t =
  let cs = ref [] and hs = ref [] in
  Hashtbl.iter
    (fun name -> function
      | Counter c -> cs := (name, !c) :: !cs
      | Hist h -> hs := (name, h) :: !hs)
    t.entries;
  { origin; clock; counters = List.sort by_name !cs; histograms = List.sort by_name !hs }

(* {1 Fleet merge}

   The coordinator folds worker snapshots the same way [Dist.Merge]
   folds sync frames: keyed per origin, latest logical clock wins, ties
   broken by a total structural order so duplicate and out-of-order
   delivery are invisible. That keying is what makes the join a genuine
   semilattice — commutative, associative and idempotent — even though
   the cross-origin totals below *sum* counters. *)

module Fleet = struct
  (* Sorted by origin, at most one snapshot per origin. *)
  type nonrec t = snapshot list

  let empty = []

  (* Total order on same-origin snapshots: clock first, then structure.
     [compare] is safe here: snapshots are pure data (ints, floats,
     strings, histogram bucket arrays). *)
  let supersedes a b =
    a.clock > b.clock || (a.clock = b.clock && compare a b >= 0)

  let add t s =
    let rec go = function
      | [] -> [ s ]
      | x :: rest when x.origin < s.origin -> x :: go rest
      | x :: rest when x.origin = s.origin ->
        (if supersedes s x then s else x) :: rest
      | rest -> s :: rest
    in
    go t

  let join a b = List.fold_left add a b
  let equal (a : t) (b : t) = a = b

  let totals t =
    let sum_int m (name, v) =
      let prev = try List.assoc name m with Not_found -> 0 in
      (name, prev + v) :: List.remove_assoc name m
    in
    let merge_hist m (name, h) =
      match List.assoc_opt name m with
      | None -> (name, h) :: m
      | Some h0 -> (name, Histogram.merge h0 h) :: List.remove_assoc name m
    in
    let counters =
      List.sort by_name
        (List.fold_left (fun m s -> List.fold_left sum_int m s.counters) [] t)
    in
    let histograms =
      List.sort by_name
        (List.fold_left (fun m s -> List.fold_left merge_hist m s.histograms) [] t)
    in
    let clock = List.fold_left (fun acc s -> max acc s.clock) 0 t in
    { origin = -1; clock; counters; histograms }
end
