(** Deterministic fault injection for resilience testing.

    A {!plan} maps execution indices (0-based, in campaign order) to
    faults. The fuzzer consults the plan before each execution and — when
    an index is planned — degrades that one execution instead of running
    the subject normally. Because plans are keyed on the deterministic
    execution counter and built from a seed, a chaos run is exactly
    reproducible: same plan, same faults, same campaign.

    The plan mutates only on the driving domain (it records which faults
    actually fired); it is not safe to share across domains. *)

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
    indices in [\[0, executions)] and assigns each a fault kind
    (uniformly among [Raise]/[Starve_fuel]/[Slow]),
    deterministically from [seed]. *)

val consume : plan -> int -> kind option
(** Look up, recording the hit in the trigger log when present. The
    fuzzer calls this once per execution index. *)

val triggered : plan -> (int * kind) list
(** Faults that actually fired, in firing order. *)

val kind_label : kind -> string
(** Short stable label for events/logs: ["raise"], ["starve_fuel"], … *)
