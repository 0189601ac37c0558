(** Taints: the set of input positions a value is derived from.

    The paper's prototype taints every input character with a unique
    identifier and propagates taints through derived values (Section 4).
    Here a taint is the set of 0-based indices into the current input
    string. Values read directly from the input carry singleton taints;
    values computed from several characters accumulate the union. *)

type t

val empty : t
(** The taint of constants: not derived from the input at all. *)

val singleton : int -> t
(** Taint of the input character at the given index. *)

val union : t -> t -> t
(** Taint accumulation for derived values. *)

val is_empty : t -> bool
val mem : int -> t -> bool

val max_index : t -> int option
(** The rightmost input position involved, i.e. where a substitution must
    be applied to change this value. [None] for {!empty}. *)

val max_index_raw : t -> int
(** [max_index] without the option allocation: [-1] for {!empty}. For the
    execution hot path, where every emitted comparison event queries the
    operand's taint. *)

val min_index : t -> int option

val cardinal : t -> int
val to_list : t -> int list
(** Ascending. *)

val of_list : int list -> t
