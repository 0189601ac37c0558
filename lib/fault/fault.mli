(** Deterministic fault injection for resilience testing.

    A {!plan} maps call indices (0-based) to faults, and {!subject}
    wraps a subject so that its parse meets the fault planned for its
    own call count. The fuzzer runs every execution as one cold parse
    of [parse], so call [i] is execution [i] of the campaign. Because plans are built from a list
    or a seed, a chaos run is exactly reproducible: same plan, same
    faults, same campaign.

    The plan records which faults fired; it mutates on the domain that
    parses and is not safe to share across domains. *)

exception Injected of string
(** The exception a {!Raise} fault makes the subject throw. Contained by
    [Runner] as a [Crash] verdict like any real subject exception. *)

type kind =
  | Raise of string
      (** subject raises [Injected msg] immediately — models a crashing
          subject; the execution yields a [Crash] verdict *)
  | Starve_fuel
      (** the execution's fuel runs out immediately — models a
          pathological hang;
          yields [Hang] *)
  | Slow of int
      (** spin [n] iterations of busy work before executing normally —
          models a pathologically slow execution; observationally
          neutral apart from wall-clock *)

type plan

val of_list : (int * kind) list -> plan
(** Explicit plan; later bindings for the same index win. Negative
    indices are rejected. *)

val seeded : seed:int -> executions:int -> count:int -> plan
(** [seeded ~seed ~executions ~count] draws [count] distinct execution
    indices in [\[0, executions)], deterministically from [seed], and
    deals them the kinds [Raise], [Starve_fuel] and [Slow] round-robin
    in draw order, so any [count >= 3] plans every kind. *)

val subject : plan -> Pdf_subjects.Subject.t -> Pdf_subjects.Subject.t
(** [subject plan s] is [s] whose parse counts its calls from 0 and
    degrades call [i] by the fault planned for [i], recording it in
    {!triggered}. Unplanned calls parse as [s] does, so with an empty
    plan every run equals the bare subject's. *)

val triggered : plan -> (int * kind) list
(** Faults that actually fired, in firing order. *)
