(** A character together with its taint. *)

type t = { ch : char; taint : Taint.t }

val untainted : char -> t
(** A constant character (empty taint). *)

val input : int -> char -> t
(** [input i c] is the character [c] read from input position [i]. *)

val interned : int -> char -> t option
(** [interned i c] is [Some (input i c)], shared: below
    {!interned_positions} every call with the same position and byte
    returns the physically same value, from a process-wide table that
    is filled on demand and safe to read and fill from any domain. At
    and past the bound it is a fresh value. The input reader returns
    these, so reading a character allocates nothing. *)

val interned_positions : int
(** Positions [0 .. interned_positions - 1] are interned. The bound
    lies above every tool's default input-length cap (64), so at most
    [interned_positions] rows of 256 entries can exist (about 18 KB a
    full row). *)

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
