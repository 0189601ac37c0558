(* The SplitMix64 state word, held unboxed in eight bytes: a
   [mutable state : int64] field would box a new state on every draw
   and store it into the long-lived generator through the write
   barrier. Read and written in place, a draw whose result is consumed
   at once allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let state t = Bytes.get_int64_ne t 0

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let make seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (bits64 t)
let copy = Bytes.copy

let int t bound =
  assert (bound > 0);
  (* Mask to 62 bits so the value fits OCaml's native int non-negatively. *)
  let v = Int64.to_int (Int64.logand (bits64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L
let char t = Char.chr (int t 256)

let printable_alphabet =
  let printable = List.init 95 (fun i -> Char.chr (0x20 + i)) in
  Array.of_list (('\n' :: '\t' :: printable))

let printable t = printable_alphabet.(int t (Array.length printable_alphabet))

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
