(* [cap] is the writable capacity. For vectors that own their backing
   array it equals [Array.length data]; for borrowed vectors (see
   [of_prefix]) it equals [len], so the very first push routes through
   [grow] and copies the shared prefix into owned storage — copy-on-write
   with no extra test on the push hot path. *)
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
  (* cap = len marks the backing array as shared: it is never written. *)
  { data = arr; len; cap = len; dummy }

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

let to_array t = Array.sub t.data 0 t.len

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.data.(i) :: !acc
  done;
  !acc
