(** Instrumentation sites.

    A site is a static program location in a subject parser: either a
    basic {i block} (one coverage outcome: reached) or a {i branch} (two
    outcomes: taken / not taken). Subjects declare all their sites against
    a per-subject registry at module initialisation time, which gives the
    evaluation a static denominator for branch-coverage percentages — the
    role gcov's block/branch counts play in the paper. *)

type kind = Block | Branch

type t

type registry

val create_registry : string -> registry
(** [create_registry subject_name] makes an empty registry. *)

val block : registry -> string -> t
(** Declare a block site. Names must be unique within the registry. *)

val branch : registry -> string -> t
(** Declare a branch site. *)

val name : t -> string
val id : t -> int
(** Dense ids, unique within the registry. *)

val outcome : t -> bool -> int
(** [outcome site taken] is the dense outcome identifier recorded in
    coverage sets and traces. For a block site, [taken] is ignored. *)

val site_count : registry -> int
val total_outcomes : registry -> int
(** Blocks contribute 1, branches 2. The denominator of coverage %. *)

val sites : registry -> t list
(** All declared sites, in declaration order. *)

val outcome_name : registry -> int -> string
(** Human-readable description of an outcome id, for reports. *)
