(** Growable arrays (amortised O(1) push).

    The allocation-free backing store of the execution hot path: a
    context's touched outcomes, trace and frame log are appended here
    instead of being consed onto reversed lists. Every vector owns its
    backing array, which only {!backing} lends out, for reading. A
    vector is created with a [dummy] element used to fill unoccupied
    capacity, which keeps the implementation free of [Obj.magic] and
    keeps vacated slots from retaining dead values. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] is an empty vector. [dummy] fills unused slots; it is
    never returned by accessors. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append one element, growing the backing array geometrically. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element; raises [Invalid_argument] out of
    bounds. *)

val clear : 'a t -> unit
(** Empty the vector and keep its capacity, so refilling it allocates
    nothing until it outgrows its longest fill. *)

val clear_ints : int t -> unit
(** {!clear} for an int vector, by its length alone: an int slot keeps
    nothing alive, so the vacated slots are not refilled. *)

val backing : 'a t -> 'a array
(** The backing array itself, not a copy: its first [length t] elements
    are the vector's, and the rest is filler. It is valid until the next
    {!push} or clear, and must not be written. *)

val to_array : 'a t -> 'a array
(** Fresh array of exactly [length t] elements. *)

val to_list : 'a t -> 'a list
