type t = { mutable counts : int array }

let create () = { counts = [||] }

let ensure t n =
  let len = Array.length t.counts in
  if len < n then begin
    let grown = Array.make (Int.max n (2 * len)) 0 in
    Array.blit t.counts 0 grown 0 len;
    t.counts <- grown
  end

(* Runs once per execution, so it is two [for] loops and no closure.
   The first finds the length that growing for each outcome in turn
   would reach, and the counts grow once, to it: the array's length is
   part of a result's Marshal form, which campaign summaries digest. *)
let record_prefix t touched ~len:n =
  let len = ref (Array.length t.counts) in
  for i = 0 to n - 1 do
    let need = touched.(i) + 1 in
    if need > !len then len := if need > 2 * !len then need else 2 * !len
  done;
  ensure t !len;
  let counts = t.counts in
  for i = 0 to n - 1 do
    let oid = touched.(i) in
    counts.(oid) <- counts.(oid) + 1
  done

let record t touched = record_prefix t touched ~len:(Array.length touched)

let count t oid = if oid < Array.length t.counts then t.counts.(oid) else 0

let merge a b =
  let n = Int.max (Array.length a.counts) (Array.length b.counts) in
  let counts = Array.init n (fun i -> count a i + count b i) in
  { counts }

let equal a b =
  let n = Int.max (Array.length a.counts) (Array.length b.counts) in
  let rec go i = i >= n || (count a i = count b i && go (i + 1)) in
  go 0

let to_list t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

let of_list l =
  let t = create () in
  List.iter
    (fun (oid, c) ->
      ensure t (oid + 1);
      t.counts.(oid) <- t.counts.(oid) + c)
    l;
  t
