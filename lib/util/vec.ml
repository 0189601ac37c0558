(* [cap] is the writable capacity. For vectors that own their backing
   array it equals [Array.length data]; for borrowed vectors (see
   [of_prefix]) it is -1, so the very first push routes through [grow]
   and copies the shared prefix into owned storage — copy-on-write with
   no extra test on the push hot path — and [clear] can tell a borrowed
   array from a full owned one. *)
type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  mutable cap : int;
  dummy : 'a;
}

let create ?(capacity = 0) dummy =
  let data = if capacity <= 0 then [||] else Array.make capacity dummy in
  { data; len = 0; cap = Array.length data; dummy }

let of_prefix arr ~len dummy =
  if len < 0 || len > Array.length arr then invalid_arg "Vec.of_prefix";
  (* cap = -1 marks the backing array as shared: it is never written. *)
  { data = arr; len; cap = -1; dummy }

let[@inline] length t = t.len

let grow t =
  let ncap = if t.len = 0 then 16 else 2 * t.len in
  let ndata = Array.make ncap t.dummy in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata;
  t.cap <- ncap

let[@inline] push t x =
  if t.len >= t.cap then grow t;
  (* len < cap <= Array.length data after the grow check, so the store
     needs no bound check of its own. *)
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let[@inline] get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

(* Vacated slots get the dummy back, so a cleared vector keeps no dead
   value alive. A borrowed vector has nothing of its own to clear; it
   drops the borrowed prefix, and its next push allocates. *)
let clear t =
  if t.cap >= 0 then Array.fill t.data 0 t.len t.dummy
  else begin
    t.data <- [||];
    t.cap <- 0
  end;
  t.len <- 0

(* A borrowed vector keeps [cap = -1], so its next push still copies
   into owned storage and the borrowed array stays unwritten. *)
let clear_ints (t : int t) = t.len <- 0

let[@inline] backing t = t.data

let to_array t = Array.sub t.data 0 t.len

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.data.(i) :: !acc
  done;
  !acc
