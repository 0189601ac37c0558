(** Growable arrays (amortised O(1) push).

    The allocation-free backing store of the execution hot path: traces,
    comparison logs and frame logs are appended here instead of being
    consed onto reversed lists. A vector is created with a [dummy]
    element used to fill unoccupied capacity, which keeps the
    implementation free of [Obj.magic] and keeps vacated slots from
    retaining dead values. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] is an empty vector. [dummy] fills unused slots; it is
    never returned by accessors. *)

val of_prefix : 'a array -> len:int -> 'a -> 'a t
(** [of_prefix arr ~len dummy] is a vector whose first [len] elements are
    shared with [arr] — no copy is made. The borrowed array is never
    written: the first {!push} copies the prefix into owned storage
    (copy-on-write). The caller must not mutate [arr.(0..len-1)] while
    the vector is live. Raises [Invalid_argument] if [len] is out of
    bounds. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append one element, growing the backing array geometrically. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element; raises [Invalid_argument] out of
    bounds. *)

val clear : 'a t -> unit
(** Empty the vector and keep its capacity, so refilling it allocates
    nothing until it outgrows its longest fill. A borrowed vector (see
    {!of_prefix}) drops the borrowed prefix instead; the array it
    borrowed is never written. *)

val backing : 'a t -> 'a array
(** The backing array itself, not a copy: its first [length t] elements
    are the vector's, and the rest is filler. It is valid until the next
    {!push} or {!clear}, and must not be written. *)

val to_array : 'a t -> 'a array
(** Fresh array of exactly [length t] elements. *)

val to_list : 'a t -> 'a list
