(* Open addressing with linear probing over one int array of slot
   pairs: slot [i] holds a node's prefix hash at [2i], or -1 when empty
   (hashes are non-negative), and the node's id at [2i + 1], so a probe
   reads the hash and the id from one cache line. Node [k]'s prefix is
   the arena bytes [starts.(k), starts.(k + 1)) (nodes are appended in
   id order), and its row is the 32 bytes of [rows] from [32 k]: bit
   [c land 7] of the row's byte [c lsr 3] is set when the prefix
   followed by byte [c] is a member.

   Nodes are never deleted: the fuzzer resets the whole generation
   instead, which empties the table and rewinds the nodes and the
   arena. A row is cleared when its node is made, so a reset does not
   touch the rows. The load factor stays below 1/2, and every array
   grows by doubling, so an operation allocates nothing except on the
   rare growth.

   The open prefix's node is looked up once, by [open_prefix], and kept
   in [open_node]. Only a one-byte [add] can make that node: any other
   [add] makes a node for a prefix of another length. So [open_node]
   stays exact while the prefix is open as long as that [add] and
   [reset] update it.

   The probe loops are [while]s over refs, not local recursive
   functions: the compiler keeps non-escaping refs in registers,
   whereas a [let rec] capturing variables costs a closure per call, on
   the hottest path in the fuzzer. *)

module Fnv = Pdf_util.Fnv

type t = {
  mutable table : int array;  (* (hash, node) pairs; hash -1 = empty slot *)
  mutable mask : int;  (* slots - 1; the slot count is a power of 2 *)
  mutable nodes : int;
  mutable starts : int array;  (* [nodes + 1] in use; [starts.(0) = 0] *)
  mutable rows : Bytes.t;  (* 32 bytes per node *)
  mutable arena : Bytes.t;
  mutable count : int;  (* members, the empty string included *)
  mutable empty : bool;  (* is the empty string a member? *)
  mutable open_input : string;
  mutable open_len : int;
  mutable open_hash : int;  (* Fnv.prefix open_input open_len *)
  mutable open_node : int;  (* the open prefix's node, or -1 *)
}

let initial_slots = 1024
let initial_nodes = 256
let initial_arena = 8192

let create () =
  {
    table = Array.make (2 * initial_slots) (-1);
    mask = initial_slots - 1;
    nodes = 0;
    starts = Array.make (initial_nodes + 1) 0;
    rows = Bytes.create (32 * initial_nodes);
    arena = Bytes.create initial_arena;
    count = 0;
    empty = false;
    open_input = "";
    open_len = 0;
    open_hash = Fnv.prefix "" 0;
    open_node = -1;
  }

let count t = t.count

(* Is node [k]'s prefix [input[0..a) ^ repl[0..b)]? Both parts are
   known to exist, and the lengths are compared first, so every read is
   in bounds. *)
let matches t k input a repl b =
  let off = Array.unsafe_get t.starts k in
  Array.unsafe_get t.starts (k + 1) - off = a + b
  &&
  let arena = t.arena in
  let i = ref 0 in
  while
    !i < a && Bytes.unsafe_get arena (off + !i) = String.unsafe_get input !i
  do
    incr i
  done;
  !i >= a
  &&
  let off = off + a in
  let j = ref 0 in
  while
    !j < b && Bytes.unsafe_get arena (off + !j) = String.unsafe_get repl !j
  do
    incr j
  done;
  !j >= b

(* The node whose prefix is [input[0..a) ^ repl[0..b)], hashed [h], or
   -1. *)
let find t h input a repl b =
  let table = t.table and mask = t.mask in
  let i = ref (h land mask) in
  let res = ref (-2) in
  while !res = -2 do
    let hi = Array.unsafe_get table (2 * !i) in
    if hi = -1 then res := -1
    else if
      hi = h && matches t (Array.unsafe_get table ((2 * !i) + 1)) input a repl b
    then res := Array.unsafe_get table ((2 * !i) + 1)
    else i := (!i + 1) land mask
  done;
  !res

let insert_slot t h k =
  let table = t.table and mask = t.mask in
  let i = ref (h land mask) in
  while Array.unsafe_get table (2 * !i) >= 0 do
    i := (!i + 1) land mask
  done;
  table.(2 * !i) <- h;
  table.((2 * !i) + 1) <- k

let grow_table t =
  let old = t.table in
  (* The old table holds [Array.length old / 2] slots: twice that many
     are [Array.length old]. *)
  let slots = Array.length old in
  t.table <- Array.make (2 * slots) (-1);
  t.mask <- slots - 1;
  for i = 0 to (slots / 2) - 1 do
    let h = old.(2 * i) in
    if h >= 0 then insert_slot t h old.((2 * i) + 1)
  done

let grow_nodes t =
  let cap = Array.length t.starts - 1 in
  let starts = Array.make ((2 * cap) + 1) 0 in
  Array.blit t.starts 0 starts 0 (t.nodes + 1);
  t.starts <- starts;
  let rows = Bytes.create (64 * cap) in
  Bytes.blit t.rows 0 rows 0 (32 * t.nodes);
  t.rows <- rows

(* Room for arena bytes up to [need], doubling as often as that takes. *)
let reserve t need =
  let len = Bytes.length t.arena in
  if need > len then begin
    let cap = ref (2 * len) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let a = Bytes.create !cap in
    Bytes.blit t.arena 0 a 0 t.starts.(t.nodes);
    t.arena <- a
  end

(* A node with an empty row for the prefix [input[0..a) ^ repl[0..b)],
   hashed [h], which the caller has found absent. *)
let make_node t h input a repl b =
  if 4 * (t.nodes + 1) > Array.length t.table then grow_table t;
  let k = t.nodes in
  if k + 1 = Array.length t.starts then grow_nodes t;
  let off = t.starts.(k) in
  let stop = off + a + b in
  reserve t stop;
  Bytes.blit_string input 0 t.arena off a;
  Bytes.blit_string repl 0 t.arena (off + a) b;
  t.starts.(k + 1) <- stop;
  Bytes.fill t.rows (32 * k) 32 '\000';
  t.nodes <- k + 1;
  insert_slot t h k;
  k

let has t k c =
  let c = Char.code c in
  Char.code (Bytes.unsafe_get t.rows ((k lsl 5) lor (c lsr 3)))
  land (1 lsl (c land 7))
  <> 0

let set t k c =
  let c = Char.code c in
  let pos = (k lsl 5) lor (c lsr 3) in
  let row = Char.code (Bytes.unsafe_get t.rows pos) in
  let bit = 1 lsl (c land 7) in
  if row land bit = 0 then begin
    Bytes.unsafe_set t.rows pos (Char.unsafe_chr (row lor bit));
    t.count <- t.count + 1
  end

let open_prefix t input index =
  if index < 0 || index > String.length input then
    invalid_arg
      (Printf.sprintf "Dedupe.open_prefix: index %d outside the input" index);
  let h = Fnv.prefix input index in
  t.open_input <- input;
  t.open_len <- index;
  t.open_hash <- h;
  t.open_node <- find t h input index "" 0

(* [mem] and [add] split [p ^ repl], [p] the open prefix, by the length
   of [repl]: one byte is a bit in the open node's row; a longer [repl]
   keeps its last byte for the row and joins the rest to [p] as the
   prefix; an empty [repl] leaves [p]'s last byte for the row, or is
   the empty string. *)
let mem t repl =
  let rl = String.length repl in
  if rl = 1 then
    t.open_node >= 0 && has t t.open_node (String.unsafe_get repl 0)
  else if rl > 1 then
    let b = rl - 1 in
    let k =
      find t (Fnv.extend t.open_hash repl b) t.open_input t.open_len repl b
    in
    k >= 0 && has t k (String.unsafe_get repl b)
  else if t.open_len = 0 then t.empty
  else
    let a = t.open_len - 1 in
    let k = find t (Fnv.prefix t.open_input a) t.open_input a "" 0 in
    k >= 0 && has t k (String.unsafe_get t.open_input a)

let find_or_make t h input a repl b =
  let k = find t h input a repl b in
  if k >= 0 then k else make_node t h input a repl b

let add t repl =
  let rl = String.length repl in
  if rl = 1 then begin
    if t.open_node < 0 then
      t.open_node <- make_node t t.open_hash t.open_input t.open_len "" 0;
    set t t.open_node (String.unsafe_get repl 0)
  end
  else if rl > 1 then
    let b = rl - 1 in
    let h = Fnv.extend t.open_hash repl b in
    let k = find_or_make t h t.open_input t.open_len repl b in
    set t k (String.unsafe_get repl b)
  else if t.open_len = 0 then begin
    if not t.empty then begin
      t.empty <- true;
      t.count <- t.count + 1
    end
  end
  else
    let a = t.open_len - 1 in
    let h = Fnv.prefix t.open_input a in
    let k = find_or_make t h t.open_input a "" 0 in
    set t k (String.unsafe_get t.open_input a)

let reset t =
  Array.fill t.table 0 (Array.length t.table) (-1);
  t.nodes <- 0;
  t.count <- 0;
  t.empty <- false;
  t.open_node <- -1

let fold f t acc =
  let acc = ref (if t.empty then f "" acc else acc) in
  for k = 0 to t.nodes - 1 do
    let off = t.starts.(k) in
    let len = t.starts.(k + 1) - off in
    for byte = 0 to 31 do
      let row = Char.code (Bytes.get t.rows ((32 * k) + byte)) in
      for bit = 0 to 7 do
        if row land (1 lsl bit) <> 0 then begin
          let s = Bytes.create (len + 1) in
          Bytes.blit t.arena off s 0 len;
          Bytes.set s len (Char.chr ((8 * byte) + bit));
          acc := f (Bytes.unsafe_to_string s) !acc
        end
      done
    done
  done;
  !acc
