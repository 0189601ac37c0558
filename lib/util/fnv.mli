(** FNV-1a hashing over string ranges, without substring allocation.

    Used by the hot-loop tables that key on parts of strings (the prefix
    cache, the candidate dedupe set): hash the range in place, then
    verify matches with in-place comparison. Values are non-negative and
    deterministic across processes — safe as [Hashtbl] keys and safe to
    round-trip through checkpoints. *)

val prefix : string -> int -> int
(** Hash of the first [len] bytes of [s]. *)

val string : string -> int
(** Hash of the whole string; equals [prefix s (String.length s)]. *)

val extend : int -> string -> int -> int
(** [extend h b len] resumes hash [h] over the first [len] bytes of [b]:
    [extend (prefix a n) b len] is
    [string (String.sub a 0 n ^ String.sub b 0 len)]. *)
