(* GC sizing for campaign workloads. A fuzzing campaign's allocation
   profile is dominated by short-lived per-execution garbage (journal
   records, candidate strings, scoring floats); with OCaml's default
   256k-word minor heap most of it is promoted by sheer arrival rate and
   then collected by the major GC at several times the cost. Sizing the
   minor heap to the campaign's working set lets that garbage die young.

   The sizing never changes what the fuzzer computes — GC pacing is
   invisible to the search — so it is safe to apply from any entry
   point. *)

(* Derived from the queue bound, the knob that scales the resident
   candidate set (queue entries plus the 4x dedupe table riding on it):
   32 words of minor headroom per potential queue slot, clamped to
   [256k, 4M] words so tiny configs keep the runtime default and huge
   ones do not starve the major heap. *)
let default_minor_words ~queue_bound =
  let words = queue_bound * 32 in
  max 262_144 (min 4_194_304 words)

let set_minor_heap words =
  if words > 0 && Gc.((get ()).minor_heap_size) <> words then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }
