(** The instrumented phases of the fuzzer's per-execution work. *)

type t =
  | Exec  (** subject execution: parsing the candidate input *)
  | Score  (** queue re-ranks: re-scoring after vBr grows *)
  | Queue
      (** queue push (including the scoring of a push that starts a
          run), pop and truncate *)
  | Gen
      (** candidate generation: path-novelty accounting, the
          hash-before-allocate dedupe probe and child construction in
          [addInputs] *)

val all : t list
val count : int
val index : t -> int
val name : t -> string
