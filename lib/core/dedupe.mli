(** The fuzzer's dedupe set: every input queued since the last reset.

    A non-empty string is stored as its prefix, all but its last byte,
    plus that last byte. Each distinct prefix is a node: its bytes are
    appended once to one arena, it is found through one open-addressed
    table keyed by the prefix's FNV hash, and it owns a 256-bit row
    whose bit [c] marks the string [prefix ^ c] as present. The empty
    string is a flag. The table, the rows and the arena hold no
    pointers, so an entry costs no heap block of its own and the minor
    collector never scans the set.

    The children of one Algorithm 1 call share the prefix
    [input[0..index)] and almost all differ in one replacement byte, so
    the set is probed through an open prefix: {!open_prefix} finds the
    prefix's node with one table probe, and {!mem} and {!add} of a
    one-byte replacement then test and set a bit in that node's row. A
    longer replacement, such as a keyword completion, looks up the node
    [input[0..index) ^ repl[0..|repl|-1)] with its own probe, comparing
    the parts against the arena in place. No child string is built.

    Memory: a node costs its 32-byte row, an 8-byte arena offset and its
    prefix bytes, and the table keeps at least two 16-byte slots per
    node; every array grows by doubling, so up to twice that is
    allocated. In the worst case every entry is its own node, and costs
    at least 72 bytes plus its bytes. In practice siblings share one: a
    20k-execution campaign makes 0.20–0.52 nodes per execution and puts
    5–16 strings in each. *)

type t

val create : unit -> t
(** An empty set, whose open prefix is the empty string. *)

val count : t -> int
(** Strings in the set: the entries added since the last {!reset}, not
    the nodes holding them. *)

val open_prefix : t -> string -> int -> unit
(** [open_prefix t input index] makes [p = input[0..index)] the open
    prefix that {!mem} and {!add} extend, and finds its node: one table
    probe. The set keeps [input] until the next call. Raises
    [Invalid_argument] unless [0 <= index <= String.length input]. *)

val mem : t -> string -> bool
(** [mem t repl]: is [p ^ repl] in the set, [p] the open prefix? A
    one-byte [repl] costs a bit test. *)

val add : t -> string -> unit
(** [add t repl] adds [p ^ repl], [p] the open prefix. Adding a member
    again changes nothing. *)

val reset : t -> unit
(** Empties the set, keeping the capacity of the table, the rows and
    the arena, and the open prefix (which now has no node). *)

val fold : (string -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds [f] over the members, each built as a fresh string: the empty
    string first if it is a member, then node by node in the order the
    nodes were made, and within a node by ascending last byte.
    Checkpoints store the set this way; restoring it adds the strings
    back in any order. *)
