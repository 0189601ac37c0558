type t = { ch : char; taint : Taint.t }

let untainted ch = { ch; taint = Taint.empty }
let input i ch = { ch; taint = Taint.singleton i }
let code t = Char.code t.ch
let map f t = { t with ch = f t.ch }

let combine f a b = { ch = f a.ch b.ch; taint = Taint.union a.taint b.taint }

let is_tainted t = not (Taint.is_empty t.taint)

(* Interned input characters: one [Some (input i c)] per position [i]
   below the bound and byte [c], so a read hands out a shared value
   instead of allocating one. The spine of rows is built on first use,
   as is each position's row and each byte's entry: a process that
   never reads input holds none of it. Every value is immutable once
   stored, so domains may share the table. The spine is published
   whole through the atomic, as [Ctx]'s [Char_eq] kinds are; rows and
   entries are plain stores of values built before the store, which
   OCaml 5 makes visible whole. Domains that race on one slot each
   build an equal value and either store is kept. *)
let interned_positions = 128

let spine : t option array array Atomic.t = Atomic.make [||]

(* Everything but a hit: past the bound, or a slot not yet built. Kept
   out of line, so that each read the compiler inlines carries only the
   hit path. *)
let[@inline never] intern i c =
  if i < 0 || i >= interned_positions then Some (input i c)
  else begin
    let rows = Atomic.get spine in
    let rows =
      if Array.length rows > 0 then rows
      else begin
        let rows = Array.make interned_positions [||] in
        Atomic.set spine rows;
        rows
      end
    in
    let row = Array.unsafe_get rows i in
    let row =
      if Array.length row > 0 then row
      else begin
        let row = Array.make 256 None in
        Array.unsafe_set rows i row;
        row
      end
    in
    match Array.unsafe_get row (Char.code c) with
    | Some _ as v -> v
    | None ->
      let v = Some (input i c) in
      Array.unsafe_set row (Char.code c) v;
      v
  end

(* The spine is empty until built, so the bound check also catches an
   unbuilt spine. *)
let interned i c =
  let rows = Atomic.get spine in
  if i >= 0 && i < Array.length rows then begin
    let row = Array.unsafe_get rows i in
    if Array.length row > 0 then
      match Array.unsafe_get row (Char.code c) with
      | Some _ as v -> v
      | None -> intern i c
    else intern i c
  end
  else intern i c
