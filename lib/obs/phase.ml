(* The fuzzer's per-execution work, partitioned for the wall-clock
   breakdown. Anything not covered by a span shows up as "other" in the
   trace report (loop bookkeeping, observer overhead itself). *)

type t = Exec | Cache | Score | Queue | Gen

let all = [ Exec; Cache; Score; Queue; Gen ]
let count = 5
let index = function Exec -> 0 | Cache -> 1 | Score -> 2 | Queue -> 3 | Gen -> 4

let name = function
  | Exec -> "exec"  (* subject execution: parse of the candidate input *)
  | Cache -> "cache"  (* prefix-snapshot lookup, store and accounting *)
  | Score -> "score"  (* queue re-ranks: re-scoring after vBr grows *)
  | Queue -> "queue"  (* queue push (scoring a new run)/pop/truncate *)
  | Gen -> "gen"  (* candidate generation: dedupe, child construction *)
