(* FNV-1a over byte ranges, masked to a non-negative OCaml int.

   The point of this module is hashing *parts* of strings in place: the
   fuzzer's hot loops key tables by an input prefix or by a
   prefix-plus-substitution concatenation, and hashing the range (or
   resuming a saved prefix hash over the tail) avoids materialising a
   substring just to throw it at [Hashtbl.hash]. The prime/offset pair
   is the standard 32-bit one; [land max_int] keeps values usable as
   non-negative [Hashtbl] keys on 63-bit ints. *)

let offset_basis = 0x811c9dc5
let prime = 0x0100_0193

(* Resume a hash over [s[0..len)], as if the two ranges had been
   concatenated: [extend (prefix a n) b k] equals
   [prefix (String.sub a 0 n ^ String.sub b 0 k) (n + k)] without
   building either. *)
let extend h s len =
  let r = ref h in
  for i = 0 to len - 1 do
    r := (!r lxor Char.code (String.unsafe_get s i)) * prime land max_int
  done;
  !r

let prefix s len = extend offset_basis s len
