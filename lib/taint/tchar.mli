(** A character together with its taint. *)

type t = { ch : char; taint : Taint.t }

val untainted : char -> t
(** A constant character (empty taint). *)

val input : int -> char -> t
(** [input i c] is the character [c] read from input position [i]. *)

val code : t -> int
(** [Char.code] of the underlying character; taint is unaffected because
    the result is used only transiently. Use {!map} for derived values
    that live on. *)

val map : (char -> char) -> t -> t
(** Derived character: same taint, transformed payload (e.g. case
    folding). *)

val combine : (char -> char -> char) -> t -> t -> t
(** Derived from two tainted characters; taints accumulate. *)

val is_tainted : t -> bool
