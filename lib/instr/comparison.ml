module Charset = Pdf_util.Charset
module Rng = Pdf_util.Rng

type kind =
  | Char_eq of char
  | Char_range of char * char
  | Char_set of Charset.t * string
  | Str_eq of { expected : string; offset : int }

type t = {
  trace_pos : int;
  index : int;
  kind : kind;
  result : bool;
  stack_depth : int;
}

type columns = {
  indices : int array;
  trace_positions : int array;
  depths : int array;
  results : bool array;
  kinds : kind array;
}

let columns n =
  {
    indices = Array.make n 0;
    trace_positions = Array.make n 0;
    depths = Array.make n 0;
    results = Array.make n false;
    kinds = Array.make n (Char_eq '\000');
  }

let grow c n =
  let room = Int.max 16 (2 * Array.length c.indices) in
  let extend a filler =
    let b = Array.make room filler in
    Array.blit a 0 b 0 n;
    b
  in
  {
    indices = extend c.indices 0;
    trace_positions = extend c.trace_positions 0;
    depths = extend c.depths 0;
    results = extend c.results false;
    kinds = extend c.kinds (Char_eq '\000');
  }

let get c i =
  {
    trace_pos = c.trace_positions.(i);
    index = c.indices.(i);
    kind = c.kinds.(i);
    result = c.results.(i);
    stack_depth = c.depths.(i);
  }

(* Small satisfying sets (symbol alphabets, digits) are enumerated in
   full — the parser really compared against each of those values.
   Proposing every member of e.g. a 95-character printable-set comparison
   would flood the queue, so large classes are sampled: four distinct
   members. *)
let enumerate_bound = 16

(* Replacement strings are overwhelmingly single characters, and
   [iter_replacements] runs for every comparison a rejected input
   logged — interning the 256 singletons means proposing one never
   allocates a string. *)
let singleton = Array.init 256 (fun i -> String.make 1 (Char.chr i))

(* The [k]-th member, in ascending order, of the satisfying set of a
   [Char_range] or [Char_set] kind. A range is contiguous, so its
   members are plain arithmetic and no [Charset] is ever built. *)
let member kind k =
  match kind with
  | Char_range (lo, _) -> singleton.(Char.code lo + k)
  | Char_set (set, _) -> singleton.(Char.code (Charset.nth set k))
  | Char_eq _ | Str_eq _ -> assert false

(* Four distinct draws of [Rng.int rng n] (a repeat is redrawn), kept
   in int locals and reported last-drawn first. Requires [n >= 4]. *)
let sample rng kind n f =
  let k1 = Rng.int rng n in
  let k2 = ref (Rng.int rng n) in
  while !k2 = k1 do
    k2 := Rng.int rng n
  done;
  let k2 = !k2 in
  let k3 = ref (Rng.int rng n) in
  while !k3 = k1 || !k3 = k2 do
    k3 := Rng.int rng n
  done;
  let k3 = !k3 in
  let k4 = ref (Rng.int rng n) in
  while !k4 = k1 || !k4 = k2 || !k4 = k3 do
    k4 := Rng.int rng n
  done;
  f (member kind !k4);
  f (member kind k3);
  f (member kind k2);
  f (member kind k1)

let iter_members rng kind n f =
  if n <= enumerate_bound then
    for k = 0 to n - 1 do
      f (member kind k)
    done
  else sample rng kind n f

let iter_replacements rng kind f =
  match kind with
  | Char_eq c -> f singleton.(Char.code c)
  | Char_range (lo, hi) as kind ->
    iter_members rng kind (Char.code hi - Char.code lo + 1) f
  | Char_set (set, _) as kind -> iter_members rng kind (Charset.cardinal set) f
  | Str_eq { expected; offset } ->
    if offset < String.length expected then
      f (String.sub expected offset (String.length expected - offset))

let replacements rng t =
  let acc = ref [] in
  iter_replacements rng t.kind (fun s -> acc := s :: !acc);
  List.rev !acc

let satisfying_set = function
  | Char_eq c -> Charset.singleton c
  | Char_range (lo, hi) -> Charset.range lo hi
  | Char_set (set, _) -> set
  | Str_eq { expected; offset } ->
    if offset >= String.length expected then Charset.empty
    else Charset.singleton expected.[offset]

let char_constraint t =
  let sat = satisfying_set t.kind in
  if t.result then sat else Charset.complement sat

let pp ppf t =
  let kind_str =
    match t.kind with
    | Char_eq c -> Printf.sprintf "== %C" c
    | Char_range (lo, hi) -> Printf.sprintf "in [%C..%C]" lo hi
    | Char_set (_, label) -> Printf.sprintf "in %s" label
    | Str_eq { expected; offset } -> Printf.sprintf "streq %S@%d" expected offset
  in
  Format.fprintf ppf "idx=%d %s -> %b (depth %d)" t.index kind_str t.result
    t.stack_depth
