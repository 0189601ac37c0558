(* Open addressing with linear probing over parallel int arrays. Slot
   [i] holds its entry's hash in [hashes.(i)], or -1 when empty (hashes
   are non-negative), and the entry's offset in the arena in
   [offsets.(i)]. At that offset the arena holds the entry's length as
   an unsigned LEB128 varint (one byte below 128), then its bytes. A
   span is thus one int in the table plus a header of a byte or so,
   whatever the length: no offset or length is ever squeezed into a
   fixed number of bits, and the table costs two words a slot.

   Entries are never deleted: the fuzzer resets the whole generation
   instead, which rewinds the arena. The load factor stays below 1/2,
   and the table and the arena both grow by doubling, so an operation
   allocates nothing except on the rare growth.

   The probe loops are [while]s over refs, not local recursive
   functions: the compiler keeps non-escaping refs in registers,
   whereas a [let rec] capturing variables costs a closure per call, on
   the hottest path in the fuzzer. *)

type t = {
  mutable hashes : int array;  (* -1 = empty slot *)
  mutable offsets : int array;
  mutable mask : int;  (* Array.length hashes - 1; length a power of 2 *)
  mutable count : int;
  mutable arena : Bytes.t;
  mutable used : int;  (* arena bytes holding entries *)
}

let initial_slots = 1024
let initial_arena = 8192

let create () =
  {
    hashes = Array.make initial_slots (-1);
    offsets = Array.make initial_slots 0;
    mask = initial_slots - 1;
    count = 0;
    arena = Bytes.create initial_arena;
    used = 0;
  }

let count t = t.count

(* Every arena and input read below is unchecked, so the parts are
   checked once here: [input[0..index)] must exist. *)
let check_parts fn input index =
  if index < 0 || index > String.length input then
    invalid_arg (Printf.sprintf "Dedupe.%s: index %d outside the input" fn index)

(* If the entry at [off] is [n] bytes long, the offset of its bytes,
   else -1. Header bytes are read only while they agree with [n]'s
   encoding, and a header's last byte is the first one below 128, so
   no read passes the end of the stored header. *)
let skip_header arena off n =
  let pos = ref off and rest = ref n and agree = ref true in
  while !agree && !rest >= 128 do
    if Char.code (Bytes.unsafe_get arena !pos) = !rest land 127 lor 128 then begin
      incr pos;
      rest := !rest lsr 7
    end
    else agree := false
  done;
  if !agree && Char.code (Bytes.unsafe_get arena !pos) = !rest then !pos + 1
  else -1

(* Does [arena.[off ..]] start with [input[0..index) ^ repl]? The
   header has matched, so the entry is that long and every read is in
   bounds. *)
let matches arena off input index repl =
  let i = ref 0 in
  while
    !i < index
    && Bytes.unsafe_get arena (off + !i) = String.unsafe_get input !i
  do
    incr i
  done;
  !i >= index
  &&
  let rl = String.length repl in
  let off = off + index in
  let j = ref 0 in
  while
    !j < rl && Bytes.unsafe_get arena (off + !j) = String.unsafe_get repl !j
  do
    incr j
  done;
  !j >= rl

let mem t h input index repl =
  check_parts "mem" input index;
  let n = index + String.length repl in
  let mask = t.mask in
  let hashes = t.hashes and offsets = t.offsets and arena = t.arena in
  let i = ref (h land mask) in
  let res = ref false in
  let probing = ref true in
  while !probing do
    let hi = Array.unsafe_get hashes !i in
    if hi = -1 then probing := false
    else if
      hi = h
      &&
      let off = skip_header arena (Array.unsafe_get offsets !i) n in
      off >= 0 && matches arena off input index repl
    then begin
      res := true;
      probing := false
    end
    else i := (!i + 1) land mask
  done;
  !res

let insert_slot t h off =
  let mask = t.mask in
  let hashes = t.hashes in
  let i = ref (h land mask) in
  while Array.unsafe_get hashes !i >= 0 do
    i := (!i + 1) land mask
  done;
  hashes.(!i) <- h;
  t.offsets.(!i) <- off

let grow_table t =
  let old_h = t.hashes and old_o = t.offsets in
  let n = 2 * Array.length old_h in
  t.hashes <- Array.make n (-1);
  t.offsets <- Array.make n 0;
  t.mask <- n - 1;
  Array.iteri (fun i h -> if h >= 0 then insert_slot t h old_o.(i)) old_h

let rec header_size n = if n < 128 then 1 else 1 + header_size (n lsr 7)

(* Room for [n] more arena bytes, doubling as often as that takes. *)
let reserve t n =
  let need = t.used + n in
  let len = Bytes.length t.arena in
  if need > len then begin
    let cap = ref (2 * len) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let a = Bytes.create !cap in
    Bytes.blit t.arena 0 a 0 t.used;
    t.arena <- a
  end

let add t h input index repl =
  check_parts "add" input index;
  if h < 0 then invalid_arg "Dedupe.add: negative hash";
  let rl = String.length repl in
  let n = index + rl in
  if 2 * (t.count + 1) > Array.length t.hashes then grow_table t;
  reserve t (header_size n + n);
  let off = t.used in
  let pos = ref off and rest = ref n in
  while !rest >= 128 do
    Bytes.set t.arena !pos (Char.unsafe_chr (!rest land 127 lor 128));
    incr pos;
    rest := !rest lsr 7
  done;
  Bytes.set t.arena !pos (Char.unsafe_chr !rest);
  let body = !pos + 1 in
  Bytes.blit_string input 0 t.arena body index;
  Bytes.blit_string repl 0 t.arena (body + index) rl;
  t.used <- body + n;
  insert_slot t h off;
  t.count <- t.count + 1

let reset t =
  Array.fill t.hashes 0 (Array.length t.hashes) (-1);
  t.used <- 0;
  t.count <- 0

(* The entry at [off] as a fresh string. *)
let entry arena off =
  let pos = ref off and n = ref 0 and shift = ref 0 in
  while Char.code (Bytes.get arena !pos) >= 128 do
    n := !n lor ((Char.code (Bytes.get arena !pos) land 127) lsl !shift);
    shift := !shift + 7;
    incr pos
  done;
  n := !n lor (Char.code (Bytes.get arena !pos) lsl !shift);
  Bytes.sub_string arena (!pos + 1) !n

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.hashes - 1 do
    if Array.unsafe_get t.hashes i >= 0 then acc := f (entry t.arena t.offsets.(i)) !acc
  done;
  !acc
