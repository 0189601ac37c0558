(** The fuzzer's dedupe set: every input queued since the last reset.

    An entry is stored as bytes appended to one arena, its length first,
    and found through two int arrays: the hashes, and the entries'
    offsets into the arena. The table holds no pointers, so an entry
    costs no heap block of its own and the minor collector never scans
    the table. No entry length is too long to store.

    A would-be child [input[0..index) ^ repl] is probed and added in
    parts: the probe compares the parts against the arena in place, so
    a duplicate is rejected before the child string exists, and adding
    one copies its parts into the arena without building it either.

    The caller supplies each entry's hash: any non-negative function of
    the entry's bytes, the same one for every call on a set. The fuzzer
    uses {!Pdf_util.Fnv}, hashing a parent's prefix once and extending
    it over each replacement. *)

type t

val create : unit -> t
(** An empty set. *)

val count : t -> int
(** Entries added since the last {!reset}. *)

val mem : t -> int -> string -> int -> string -> bool
(** [mem t h input index repl]: is [input[0..index) ^ repl] in the set?
    [h] is its hash, for FNV [Fnv.continue (Fnv.prefix input index) repl].
    Raises [Invalid_argument] unless [0 <= index <= String.length input]. *)

val add : t -> int -> string -> int -> string -> unit
(** [add t h input index repl] adds [input[0..index) ^ repl], hashed [h]
    as for {!mem}. The caller has checked that it is absent: an entry
    added twice is stored twice. Raises [Invalid_argument] as {!mem}
    does, or if [h] is negative. *)

val reset : t -> unit
(** Empties the set, keeping the capacity of the table and the arena. *)

val fold : (string -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds [f] over the entries in table order, each built as a fresh
    string. Checkpoints store the set this way. *)
