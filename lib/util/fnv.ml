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

let range s pos len =
  let h = ref offset_basis in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * prime land max_int
  done;
  !h

let prefix s len = range s 0 len

let string s = range s 0 (String.length s)

(* Resume a hash produced by [prefix]/[range] over another string, as if
   the two ranges had been concatenated: [continue (prefix a n) b] equals
   [string (String.sub a 0 n ^ b)] without building the concatenation. *)
let continue h s =
  let r = ref h in
  for i = 0 to String.length s - 1 do
    r := (!r lxor Char.code (String.unsafe_get s i)) * prime land max_int
  done;
  !r
