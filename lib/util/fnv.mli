(** FNV-1a hashing over string ranges, without substring allocation.

    Used by the hot-loop tables that key on parts of strings (the prefix
    cache, the candidate dedupe table): hash the range in place, then
    verify matches with in-place comparison. Values are non-negative and
    deterministic across processes — safe as [Hashtbl] keys and safe to
    round-trip through checkpoints. *)

val prefix : string -> int -> int
(** [prefix s len] = [range s 0 len]. *)

val string : string -> int
(** Hash of the whole string; equals [prefix s (String.length s)]. *)

val continue : int -> string -> int
(** [continue h b] resumes hash [h] over all of [b]:
    [continue (prefix a n) b = string (String.sub a 0 n ^ b)]. *)
