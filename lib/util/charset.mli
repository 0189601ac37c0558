(** Sets of characters represented as 256-bit vectors.

    This is the value domain of the constraint solver used by the
    KLEE-like baseline: a path constraint on one input position is a
    conjunction of character predicates, each of which denotes a
    [Charset.t]; conjunction is {!inter} and satisfiability is
    [not (is_empty _)]. The fuzzers also use char sets to describe
    substitution alphabets. *)

type t

val empty : t
val full : t

val singleton : char -> t
val of_list : char list -> t
val of_string : string -> t
(** [of_string s] contains exactly the characters occurring in [s]. *)

val range : char -> char -> t
(** [range lo hi] contains all [c] with [lo <= c <= hi] (inclusive).
    Empty if [lo > hi]. *)

val add : char -> t -> t
val remove : char -> t -> t
val mem : char -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool

val iter : (char -> unit) -> t -> unit
val fold : (char -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> char list
(** Ascending order. *)

val min_elt : t -> char option
val nth : t -> int -> char
(** [nth t k] is the [k]-th member in ascending order, counting from 0:
    [List.nth (to_list t) k] without building the list. Raises
    [Invalid_argument] unless [0 <= k < cardinal t]. *)

val pick : Rng.t -> t -> char option
(** [pick rng t] draws a uniformly random member, or [None] if empty:
    [nth t (Rng.int rng (cardinal t))]. *)

val digits : t
val letters : t
val printable : t

val pp : Format.formatter -> t -> unit
