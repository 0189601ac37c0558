(** AFL's mutation pipeline: the deterministic stages applied once per
    queue entry, and the stacked random "havoc" stage. All mutators are
    pure string transformers driven by an explicit RNG. *)

val deterministic : string -> string list
(** All deterministic-stage variants of an input, in stage order:
    walking bit flips (1/2/4 wide), byte flips, 8-bit arithmetic
    (±1..±16), and interesting-byte substitution. Empty for the empty
    string. *)

val havoc : Pdf_util.Rng.t -> string -> string
(** One havoc mutation: 1–8 stacked random operations (bit flip, random
    byte, arithmetic, interesting byte, delete, insert, duplicate
    block). *)

val splice : Pdf_util.Rng.t -> string -> string -> string
(** AFL's splice stage: the head of one input glued to the tail of
    another, then havoc'd. *)
