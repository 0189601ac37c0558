module Iset = Set.Make (Int)

(* Taints on the execution hot path are almost always contiguous: a
   character carries a singleton index, and a token accumulates the
   union of consecutive indices. Representing that common case as an
   interval makes [singleton] a 3-word allocation and [union] /
   [max_index] O(1), instead of building balanced-tree nodes per
   character. Non-contiguous taints (values derived from scattered input
   positions) fall back to a real integer set.

   Invariant: [Interval] has [lo <= hi]; [Set] is non-empty and
   non-contiguous. Every constructor re-normalises, so each taint has
   exactly one representation. *)
type t = Empty | Interval of { lo : int; hi : int } | Set of Iset.t

let empty = Empty
let singleton i = Interval { lo = i; hi = i }

let to_set = function
  | Empty -> Iset.empty
  | Interval { lo; hi } ->
    let rec go acc i = if i < lo then acc else go (Iset.add i acc) (i - 1) in
    go Iset.empty hi
  | Set s -> s

let of_set s =
  match (Iset.min_elt_opt s, Iset.max_elt_opt s) with
  | None, _ -> Empty
  | Some lo, Some hi when hi - lo + 1 = Iset.cardinal s -> Interval { lo; hi }
  | _ -> Set s

let union a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | Interval { lo = l1; hi = h1 }, Interval { lo = l2; hi = h2 }
    when l2 <= h1 + 1 && l1 <= h2 + 1 ->
    (* Overlapping or adjacent intervals merge without leaving the fast
       representation. *)
    Interval { lo = Int.min l1 l2; hi = Int.max h1 h2 }
  | _ -> of_set (Iset.union (to_set a) (to_set b))

let is_empty = function Empty -> true | Interval _ | Set _ -> false

let mem i = function
  | Empty -> false
  | Interval { lo; hi } -> lo <= i && i <= hi
  | Set s -> Iset.mem i s

let max_index = function
  | Empty -> None
  | Interval { hi; _ } -> Some hi
  | Set s -> Iset.max_elt_opt s

(* [Set] is non-empty by invariant, so [max_elt] cannot raise. *)
let max_index_raw = function
  | Empty -> -1
  | Interval { hi; _ } -> hi
  | Set s -> Iset.max_elt s

let min_index = function
  | Empty -> None
  | Interval { lo; _ } -> Some lo
  | Set s -> Iset.min_elt_opt s

let cardinal = function
  | Empty -> 0
  | Interval { lo; hi } -> hi - lo + 1
  | Set s -> Iset.cardinal s

let to_list = function
  | Empty -> []
  | Interval { lo; hi } -> List.init (hi - lo + 1) (fun i -> lo + i)
  | Set s -> Iset.elements s

let of_list l = of_set (Iset.of_list l)
