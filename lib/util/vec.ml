type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 0) dummy =
  let data = if capacity <= 0 then [||] else Array.make capacity dummy in
  { data; len = 0; dummy }

let[@inline] length t = t.len

let grow t =
  let ndata = Array.make (if t.len = 0 then 16 else 2 * t.len) t.dummy in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let[@inline] push t x =
  if t.len >= Array.length t.data then grow t;
  (* len < Array.length data after the grow check, so the store needs
     no bound check of its own. *)
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let[@inline] get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

(* Vacated slots get the dummy back, so a cleared vector keeps no dead
   value alive. *)
let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let clear_ints (t : int t) = t.len <- 0

let[@inline] backing t = t.data

let to_array t = Array.sub t.data 0 t.len

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.data.(i) :: !acc
  done;
  !acc
