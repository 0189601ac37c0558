(* A char set is eight 32-bit words packed in immediate OCaml ints;
   character [c] lives in word [c/32], bit [c mod 32]. Plain ints keep
   the hot [mem] test allocation-free — the previous int64 encoding
   boxed every intermediate word. *)
type t = {
  w0 : int;
  w1 : int;
  w2 : int;
  w3 : int;
  w4 : int;
  w5 : int;
  w6 : int;
  w7 : int;
}

let mask32 = 0xffff_ffff

let empty = { w0 = 0; w1 = 0; w2 = 0; w3 = 0; w4 = 0; w5 = 0; w6 = 0; w7 = 0 }

let full =
  {
    w0 = mask32;
    w1 = mask32;
    w2 = mask32;
    w3 = mask32;
    w4 = mask32;
    w5 = mask32;
    w6 = mask32;
    w7 = mask32;
  }

let word t i =
  match i with
  | 0 -> t.w0
  | 1 -> t.w1
  | 2 -> t.w2
  | 3 -> t.w3
  | 4 -> t.w4
  | 5 -> t.w5
  | 6 -> t.w6
  | 7 -> t.w7
  | _ -> assert false

let with_word t i w =
  match i with
  | 0 -> { t with w0 = w }
  | 1 -> { t with w1 = w }
  | 2 -> { t with w2 = w }
  | 3 -> { t with w3 = w }
  | 4 -> { t with w4 = w }
  | 5 -> { t with w5 = w }
  | 6 -> { t with w6 = w }
  | 7 -> { t with w7 = w }
  | _ -> assert false

let bit c = 1 lsl (Char.code c land 31)
let idx c = Char.code c lsr 5

let add c t =
  let i = idx c in
  with_word t i (word t i lor bit c)

let remove c t =
  let i = idx c in
  with_word t i (word t i land lnot (bit c))

let mem c t = word t (idx c) land bit c <> 0

let singleton c = add c empty
let of_list cs = List.fold_left (fun t c -> add c t) empty cs

let of_string s =
  let t = ref empty in
  String.iter (fun c -> t := add c !t) s;
  !t

let range lo hi =
  let t = ref empty in
  for c = Char.code lo to Char.code hi do
    t := add (Char.chr c) !t
  done;
  !t

let map2 f a b =
  {
    w0 = f a.w0 b.w0;
    w1 = f a.w1 b.w1;
    w2 = f a.w2 b.w2;
    w3 = f a.w3 b.w3;
    w4 = f a.w4 b.w4;
    w5 = f a.w5 b.w5;
    w6 = f a.w6 b.w6;
    w7 = f a.w7 b.w7;
  }

let union = map2 ( lor )
let inter = map2 ( land )
let diff a b = map2 (fun x y -> x land lnot y land mask32) a b
let complement t = diff full t

(* SWAR population count of one 32-bit word, as in [Coverage]. The
   final multiply must be masked to a byte: an OCaml int is wider than
   32 bits, so the byte sums a 32-bit register would discard survive
   above bit 32. *)
let popcount32 v =
  let v = v - ((v lsr 1) land 0x5555_5555) in
  let v = (v land 0x3333_3333) + ((v lsr 2) land 0x3333_3333) in
  let v = (v + (v lsr 4)) land 0x0f0f_0f0f in
  (v * 0x0101_0101) lsr 24 land 0xff

let cardinal t =
  popcount32 t.w0 + popcount32 t.w1 + popcount32 t.w2 + popcount32 t.w3
  + popcount32 t.w4 + popcount32 t.w5 + popcount32 t.w6 + popcount32 t.w7

let is_empty t =
  t.w0 = 0 && t.w1 = 0 && t.w2 = 0 && t.w3 = 0 && t.w4 = 0 && t.w5 = 0
  && t.w6 = 0 && t.w7 = 0

let equal a b =
  a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2 && a.w3 = b.w3 && a.w4 = b.w4
  && a.w5 = b.w5 && a.w6 = b.w6 && a.w7 = b.w7

let subset a b = is_empty (diff a b)

let iter f t =
  for c = 0 to 255 do
    let ch = Char.chr c in
    if mem ch t then f ch
  done

let fold f t init =
  let acc = ref init in
  iter (fun c -> acc := f c !acc) t;
  !acc

let to_list t = List.rev (fold (fun c acc -> c :: acc) t [])

let min_elt t =
  let rec go c = if c > 255 then None else if mem (Char.chr c) t then Some (Char.chr c) else go (c + 1) in
  go 0

(* Skip whole words by their popcount, then clear the [k] lowest set
   bits of the word that holds the member and count the trailing zeros
   of what is left: no closure, no exception, no allocation. *)
let nth t k =
  if k < 0 then invalid_arg "Charset.nth";
  let k = ref k and i = ref 0 in
  while !i < 8 && !k >= popcount32 (word t !i) do
    k := !k - popcount32 (word t !i);
    incr i
  done;
  if !i = 8 then invalid_arg "Charset.nth";
  let w = ref (word t !i) in
  for _ = 1 to !k do
    w := !w land (!w - 1)
  done;
  Char.unsafe_chr ((32 * !i) + popcount32 ((!w land (- !w)) - 1))

let pick rng t =
  let n = cardinal t in
  if n = 0 then None else Some (nth t (Rng.int rng n))

let digits = range '0' '9'
let letters = union (range 'a' 'z') (range 'A' 'Z')
let printable = range ' ' '~'

let pp ppf t =
  Format.fprintf ppf "{";
  iter
    (fun c ->
      if c >= ' ' && c <= '~' then Format.fprintf ppf "%c" c
      else Format.fprintf ppf "\\x%02x" (Char.code c))
    t;
  Format.fprintf ppf "}"
