(** Comparison events: the observations the pFuzzer search is built on.

    Every tracked comparison of a tainted value produces one event
    recording where in the input the compared value came from, what it was
    compared against, whether the comparison succeeded, and the call-stack
    depth at the time — the facts Section 4 of the paper says the LLVM
    instrumentation collects. *)

type kind =
  | Char_eq of char  (** [c == 'x'] *)
  | Char_range of char * char  (** [lo <= c && c <= hi], e.g. [isdigit] *)
  | Char_set of Pdf_util.Charset.t * string
      (** membership in a named set, e.g. [isspace] *)
  | Str_eq of { expected : string; offset : int }
      (** string comparison against a keyword that matched up to
          [offset]; the event's input index is the position where the
          mismatch (or exhaustion) happened *)

type t = {
  trace_pos : int;
      (** number of {e distinct} outcomes covered before this event — an
          index into the run's first-occurrence order ([touched]) *)
  index : int;  (** input index of the compared character *)
  kind : kind;
  result : bool;
  stack_depth : int;
}

(** {1 Columns}

    A comparison log as a context records it: event [i] is
    [indices.(i)], [trace_positions.(i)], [depths.(i)], [results.(i)]
    and [kinds.(i)], the fields of {!t} in one array each. The ints and
    booleans are stored unboxed and the kinds are shared blocks, so
    logging an event allocates nothing. *)

type columns = {
  indices : int array;
  trace_positions : int array;
  depths : int array;
  results : bool array;
  kinds : kind array;
}

val columns : int -> columns
(** [columns n] has room for [n] events. *)

val grow : columns -> int -> columns
(** [grow c n] is [c] with its first [n] events copied into columns of
    twice the room (at least 16). *)

val get : columns -> int -> t
(** Event [i] as a record. *)

val iter_replacements : Pdf_util.Rng.t -> kind -> (string -> unit) -> unit
(** [iter_replacements rng kind f] calls [f] on each substitution string
    a comparison of this kind suggests for its input position: the
    character(s) that would have made it succeed. A set of at most 16
    members (a [Char_range] or [Char_set]) is enumerated in ascending
    order; a larger one yields four distinct random members, last drawn
    first. For [Str_eq], the single suggestion is the keyword's
    remaining suffix, which is what lets the fuzzer synthesise whole
    keywords (and why the heuristic rewards replacement length).
    Single characters are interned strings, and nothing is allocated
    per member: this streams straight into the fuzzer's dedupe and
    enqueue step. *)

val replacements : Pdf_util.Rng.t -> t -> string list
(** The strings {!iter_replacements} yields, in order, as a list; draws
    from [rng] exactly as {!iter_replacements} does. *)

val char_constraint : t -> Pdf_util.Charset.t
(** The set of characters that would make this comparison evaluate to
    [result] — the building block of the concolic baseline's path
    constraints. For [Str_eq] the constraint concerns the character at
    [index] only. *)

val pp : Format.formatter -> t -> unit
