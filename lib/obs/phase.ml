(* The fuzzer's per-execution work, partitioned for the wall-clock
   breakdown. Anything not covered by a span shows up as "other" in the
   trace report (loop bookkeeping, observer overhead itself). *)

type t = Exec | Score | Queue | Gen

let all = [ Exec; Score; Queue; Gen ]
let count = 4
let index = function Exec -> 0 | Score -> 1 | Queue -> 2 | Gen -> 3

let name = function
  | Exec -> "exec"  (* subject execution: parse of the candidate input *)
  | Score -> "score"  (* queue re-ranks: re-scoring after vBr grows *)
  | Queue -> "queue"  (* queue push (scoring a new run)/pop/truncate *)
  | Gen -> "gen"  (* candidate generation: dedupe, child construction *)
