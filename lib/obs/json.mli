(** Flat single-line JSON, the trace wire format. Only what the event
    schema needs: objects of string/int/float/bool fields. *)

type v = S of string | I of int | F of float | B of bool

exception Malformed of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

val write_flat : Buffer.t -> (string * v) list -> unit
val flat_to_string : (string * v) list -> string

val nested_to_string : (string * v) list -> string -> (string * v) list -> string
(** [nested_to_string fields key inner] is [fields] followed by [key]
    holding the flat object [inner], on one line: the trace_event
    format's [args]. {!parse_flat} does not read it. *)

val parse_flat : string -> (string * v) list
(** Parse one flat object, preserving field order. Raises {!Malformed}
    on nesting, bad escapes, or trailing input. *)
