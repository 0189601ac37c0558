(* Dense bitset over outcome ids.

   Outcome ids are dense (site [i] owns outcomes [2i] and [2i+1], see
   {!Site}), so a set of covered outcomes is a bit vector of at most
   [Site.total_outcomes] bits. Values are immutable int arrays of
   [Sys.int_size]-bit words, little-endian in bit index; trailing zero
   words are permitted and ignored by every observation, so [equal] and
   [cardinal] are representation-independent. All the per-execution set
   operations ([union], [diff], [new_against]) are word-parallel
   O(words) loops instead of O(n log n) persistent-set merges. *)

type t = int array

let bits = Sys.int_size

let empty = [||]

(* Population count for one word. 63-bit OCaml ints cannot hold the
   64-bit SWAR masks, so count the two 32-bit halves separately. The
   final multiply must be masked to a byte: an OCaml int is wider than
   32 bits, so the byte sums that a 32-bit register would discard
   survive above bit 32. *)
let popcount x =
  let count32 v =
    let v = v - ((v lsr 1) land 0x5555_5555) in
    let v = (v land 0x3333_3333) + ((v lsr 2) land 0x3333_3333) in
    let v = (v + (v lsr 4)) land 0x0f0f_0f0f in
    (v * 0x0101_0101) lsr 24 land 0xff
  in
  count32 (x land 0xffff_ffff) + count32 ((x lsr 32) land 0x7fff_ffff)

let check_oid i =
  if i < 0 then invalid_arg "Coverage: negative outcome id"

let add i t =
  check_oid i;
  let w = i / bits in
  let n = Int.max (Array.length t) (w + 1) in
  let r = Array.make n 0 in
  Array.blit t 0 r 0 (Array.length t);
  r.(w) <- r.(w) lor (1 lsl (i mod bits));
  r

let mem i t =
  i >= 0
  && i / bits < Array.length t
  && (t.(i / bits) lsr (i mod bits)) land 1 = 1

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let n = Int.max la lb in
    let r = Array.make n 0 in
    for i = 0 to n - 1 do
      r.(i) <-
        (if i < la then a.(i) else 0) lor (if i < lb then b.(i) else 0)
    done;
    r
  end

let diff a b =
  let lb = Array.length b in
  Array.mapi (fun i w -> if i < lb then w land lnot b.(i) else w) a

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t

let is_empty t = Array.for_all (fun w -> w = 0) t

let of_iter iter =
  let hi = ref (-1) in
  iter (fun i ->
      check_oid i;
      if i > !hi then hi := i);
  if !hi < 0 then empty
  else begin
    let r = Array.make ((!hi / bits) + 1) 0 in
    iter (fun i -> r.(i / bits) <- r.(i / bits) lor (1 lsl (i mod bits)));
    r
  end

let of_list l = of_iter (fun f -> List.iter f l)

(* Direct loops rather than [of_iter]: this builds every run's coverage
   and the parent-coverage set of every candidate-generating execution,
   and the iterator version pays two closure allocations per call. *)
let of_array ?len a =
  let len =
    match len with None -> Array.length a | Some l -> Int.min l (Array.length a)
  in
  let hi = ref (-1) in
  for i = 0 to len - 1 do
    let v = Array.unsafe_get a i in
    check_oid v;
    if v > !hi then hi := v
  done;
  if !hi < 0 then empty
  else begin
    let r = Array.make ((!hi / bits) + 1) 0 in
    for i = 0 to len - 1 do
      let v = Array.unsafe_get a i in
      r.(v / bits) <- r.(v / bits) lor (1 lsl (v mod bits))
    done;
    r
  end

let to_list t =
  let acc = ref [] in
  for w = Array.length t - 1 downto 0 do
    if t.(w) <> 0 then
      for b = bits - 1 downto 0 do
        if (t.(w) lsr b) land 1 = 1 then acc := ((w * bits) + b) :: !acc
      done
  done;
  !acc

(* [inter_cardinal] and [new_against] run once per enqueued candidate
   (several times per execution); [for]-loop accumulators keep them free
   of per-call allocation — both the closure-and-ref pattern of
   [Array.iteri] and the closure a captured-variable [let rec] costs. *)
let inter_cardinal a b =
  let n = Int.min (Array.length a) (Array.length b) in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + popcount (Array.unsafe_get a i land Array.unsafe_get b i)
  done;
  !acc

let new_against c ~baseline =
  let lb = Array.length baseline in
  let acc = ref 0 in
  for i = 0 to Array.length c - 1 do
    let w = Array.unsafe_get c i in
    let w = if i < lb then w land lnot (Array.unsafe_get baseline i) else w in
    acc := !acc + popcount w
  done;
  !acc

(* The validity check of an accepted run read in place: its coverage is
   built only if the input turns out valid. *)
let new_in a ~len ~baseline =
  let lb = Array.length baseline in
  let acc = ref 0 in
  for i = 0 to len - 1 do
    let v = Array.unsafe_get a i in
    check_oid v;
    let w = v / bits in
    if w >= lb || (Array.unsafe_get baseline w lsr (v mod bits)) land 1 = 0 then
      incr acc
  done;
  !acc

let percent c registry =
  Pdf_util.Stats.ratio (cardinal c) (Site.total_outcomes registry)

let subset a b =
  let lb = Array.length b in
  let ok = ref true in
  Array.iteri
    (fun i w ->
      let wb = if i < lb then b.(i) else 0 in
      if w land lnot wb <> 0 then ok := false)
    a;
  !ok

let equal a b =
  let la = Array.length a and lb = Array.length b in
  let n = Int.max la lb in
  let ok = ref true in
  for i = 0 to n - 1 do
    let wa = if i < la then a.(i) else 0
    and wb = if i < lb then b.(i) else 0 in
    if wa <> wb then ok := false
  done;
  !ok
