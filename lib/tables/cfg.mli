(** Context-free grammars over character terminals, for building
    table-driven parsers (the paper's §7.1 future-work direction).

    Terminals are single characters — the parsers built from these
    grammars are {e scannerless}, reading the instrumented input stream
    directly, which is the setting parser-directed fuzzing assumes. *)

type symbol = T of char | N of string

type production = { lhs : string; rhs : symbol list }

type t

val make : start:string -> production list -> t
(** @raise Invalid_argument if a right-hand side mentions a nonterminal
    with no production, or the start symbol has none. *)

val start : t -> string
val productions : t -> production list
val productions_of : t -> string -> production list
(** In declaration order. *)

val nonterminals : t -> string list
(** In first-occurrence order. *)

val production_index : t -> production -> int
(** Position in {!productions}; used as the table entry payload. *)
