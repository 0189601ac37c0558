(** Strings of tainted characters.

    Used by subject lexers for their tokens, which they cut from the
    input once read ({!of_input}); keeping per-character taints lets
    the instrumentation report, for a failed string comparison, exactly
    which input position must change (the paper's wrapped
    [strcpy]/[strcmp] behaviour). *)

type t

val empty : t
val of_string : string -> t
(** Untainted constant string. *)

val of_input : string -> int -> int -> t
(** [of_input s pos len] is [s.[pos] .. s.[pos + len - 1]] read from
    input positions [pos] onwards: each character is the shared
    {!Tchar.interned} one.
    @raise Invalid_argument unless [0 <= pos], [0 <= len] and
    [pos + len <= String.length s]. *)

val length : t -> int
val get : t -> int -> Tchar.t
val append_char : t -> Tchar.t -> t
val concat : t -> t -> t
val sub : t -> int -> int -> t
val to_string : t -> string
(** Drops taints. *)

val taint : t -> Taint.t
(** Union of all character taints. *)

val taint_of_char : t -> int -> Taint.t
val chars : t -> Tchar.t list
val equal_payload : t -> t -> bool
(** Payload equality, ignoring taints. *)
