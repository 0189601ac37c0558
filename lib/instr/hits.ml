type t = { mutable counts : int array }

let create () = { counts = [||] }

let ensure t n =
  let len = Array.length t.counts in
  if len < n then begin
    let grown = Array.make (max n (2 * len)) 0 in
    Array.blit t.counts 0 grown 0 len;
    t.counts <- grown
  end

let record t touched =
  Array.iter
    (fun oid ->
      ensure t (oid + 1);
      t.counts.(oid) <- t.counts.(oid) + 1)
    touched

let count t oid = if oid < Array.length t.counts then t.counts.(oid) else 0

let merge a b =
  let n = max (Array.length a.counts) (Array.length b.counts) in
  let counts = Array.init n (fun i -> count a i + count b i) in
  { counts }

let equal a b =
  let n = max (Array.length a.counts) (Array.length b.counts) in
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
