type crash = Ctx.crash = { exn : string; site : int; detail : string }
type verdict = Ctx.verdict = Accepted | Rejected of string | Hang | Crash of crash

(* First-occurrence order of outcomes: a compact path identity that is
   insensitive to loop iteration counts ("non-duplicate branches"), over
   the first [n] entries of a touched buffer. Shared by {!path_hash},
   the view's path hash and the crash-site hash, so a packaged run and
   a view of the same execution hash alike. *)
let fnv_touched touched n =
  let h = ref 0x811c9dc5 in
  for i = 0 to n - 1 do
    h := (!h lxor Array.unsafe_get touched i) * 0x0100_0193 land max_int
  done;
  !h

let crash_of ctx e =
  {
    exn = Printexc.exn_slot_name e;
    site = fnv_touched (Ctx.touched_buffer ctx) (Ctx.touched_count ctx);
    detail = Printexc.to_string e;
  }

let crash_id c = Printf.sprintf "%s@%08x" c.exn c.site

type run = {
  input : string;
  verdict : verdict;
  comparisons : Comparison.t array;
  coverage : Coverage.t;
  trace : int array;
  touched : int array;
  eof_access : bool;
  max_depth : int;
  frames : Frame.event array;
}

let package ctx verdict =
  let touched = Ctx.touched ctx in
  {
    input = Ctx.input ctx;
    verdict;
    comparisons = Ctx.comparisons_array ctx;
    coverage = Coverage.of_array touched;
    trace = Ctx.trace ctx;
    touched;
    eof_access = Ctx.eof_access ctx;
    max_depth = Ctx.max_depth ctx;
    frames = Ctx.frames ctx;
  }

let run_in ctx ~parse =
  match parse ctx with
  | () -> Accepted
  | exception Ctx.Reject verdict -> verdict
  | exception Ctx.Out_of_fuel -> Hang
  | exception e -> Crash (crash_of ctx e)

let exec ~registry ~parse ?fuel ?track_comparisons ?track_trace ?track_frames
    input =
  let ctx =
    Ctx.make ~registry ?fuel ?track_comparisons ?track_trace ?track_frames input
  in
  let verdict = run_in ctx ~parse in
  package ctx verdict

type journal = |  (* uninhabited stubs: see runner.mli *)
type snapshot = |
let snapshot_at (j : journal) _ = match j with _ -> .
let resume (s : snapshot) _ = match s with _ -> .

let accepted run = match run.verdict with Accepted -> true | _ -> false

(* {1 Derived observations}

   A packaged run holds its comparisons as records and a view reads a
   context's columns, so each derivation is written once over each. *)

(* The first invalid character: the rightmost position where the parser's
   expectation failed. Positions beyond it may have been touched by
   class-membership probes (e.g. "is this still a letter?") whose success
   carries no substitution information, so failed comparisons take
   precedence; with none failed, the rightmost compared position. One
   pass over the log, with the two maxima in int locals; -1 for an empty
   log (input indices are never negative). *)
let last_index cs =
  let any = ref min_int and failed = ref min_int and has_failed = ref false in
  for i = 0 to Array.length cs - 1 do
    let c = Array.unsafe_get cs i in
    let index = c.Comparison.index in
    if index > !any then any := index;
    if not c.Comparison.result then begin
      has_failed := true;
      if index > !failed then failed := index
    end
  done;
  if !has_failed then !failed else if Array.length cs > 0 then !any else -1

(* [trace_pos] counts distinct outcomes covered before the event, and
   [touched] lists outcomes in first-occurrence order — so the coverage
   accumulated before the first comparison at the given index is exactly
   a prefix of [touched], of this length. No full trace required. *)
let coverage_cut cs ~touched ~index =
  let cut = ref touched in
  for i = 0 to Array.length cs - 1 do
    let c = Array.unsafe_get cs i in
    if c.Comparison.index = index && c.Comparison.trace_pos < !cut then
      cut := c.Comparison.trace_pos
  done;
  !cut

let substitution_index run =
  let cs = run.comparisons in
  if Array.length cs = 0 then None else Some (last_index cs)

(* The [~index] variants let a caller that already computed
   {!substitution_index} reuse it — each [substitution_index]
   recomputation is a full scan of the comparison log. *)
let comparisons_at run ~index =
  let cs = run.comparisons in
  let acc = ref [] in
  for i = Array.length cs - 1 downto 0 do
    let c = Array.unsafe_get cs i in
    if c.Comparison.index = index then acc := c :: !acc
  done;
  !acc

let comparisons_at_last_index run =
  match substitution_index run with
  | None -> []
  | Some index -> comparisons_at run ~index

let coverage_up_to run ~index =
  let touched = run.touched in
  Coverage.of_array
    ~len:(coverage_cut run.comparisons ~touched:(Array.length touched) ~index)
    touched

let coverage_up_to_last_index run =
  match substitution_index run with
  | None -> run.coverage
  | Some index -> coverage_up_to run ~index

let avg_stack_of_last_two run =
  let cs = run.comparisons in
  match Array.length cs with
  | 0 -> 0.0
  | 1 -> float_of_int cs.(0).Comparison.stack_depth
  | n ->
    float_of_int (cs.(n - 1).Comparison.stack_depth + cs.(n - 2).Comparison.stack_depth)
    /. 2.0

let path_hash run = fnv_touched run.touched (Array.length run.touched)

(* {1 Views}

   The derivations again, over a context's comparison columns and
   touched buffer in place. *)

module View = struct
  type t = {
    mutable input : string;
    mutable verdict : verdict;
    mutable comparisons : Comparison.columns;
    mutable n_comparisons : int;
    mutable touched : int array;
    mutable n_touched : int;
  }

  let create () =
    {
      input = "";
      verdict = Accepted;
      comparisons = Comparison.columns 0;
      n_comparisons = 0;
      touched = [||];
      n_touched = 0;
    }

  (* The view is long-lived and the buffers only change when the
     context grows them, so a buffer field is written only then: storing
     a pointer into the view costs a write barrier. *)
  let of_ctx v ctx verdict =
    v.input <- Ctx.input ctx;
    v.verdict <- verdict;
    v.n_comparisons <- Ctx.comparison_count ctx;
    v.n_touched <- Ctx.touched_count ctx;
    let columns = Ctx.comparison_columns ctx in
    if columns != v.comparisons then v.comparisons <- columns;
    let touched = Ctx.touched_buffer ctx in
    if touched != v.touched then v.touched <- touched

  let substitution_index v =
    let indices = v.comparisons.indices and results = v.comparisons.results in
    let any = ref min_int and failed = ref min_int and has_failed = ref false in
    for i = 0 to v.n_comparisons - 1 do
      let index = Array.unsafe_get indices i in
      if index > !any then any := index;
      if not (Array.unsafe_get results i) then begin
        has_failed := true;
        if index > !failed then failed := index
      end
    done;
    if !has_failed then !failed else if v.n_comparisons > 0 then !any else -1

  let coverage_up_to v ~index =
    let indices = v.comparisons.indices
    and trace_positions = v.comparisons.trace_positions in
    let cut = ref v.n_touched in
    for i = 0 to v.n_comparisons - 1 do
      let trace_pos = Array.unsafe_get trace_positions i in
      if Array.unsafe_get indices i = index && trace_pos < !cut then cut := trace_pos
    done;
    Coverage.of_array ~len:!cut v.touched

  let avg_stack_of_last_two v =
    let depths = v.comparisons.depths in
    match v.n_comparisons with
    | 0 -> 0.0
    | 1 -> float_of_int depths.(0)
    | n -> float_of_int (depths.(n - 1) + depths.(n - 2)) /. 2.0

  let path_hash v = fnv_touched v.touched v.n_touched
  let coverage v = Coverage.of_array ~len:v.n_touched v.touched
  let new_outcomes v ~baseline = Coverage.new_in v.touched ~len:v.n_touched ~baseline
end

let pp_verdict ppf = function
  | Accepted -> Format.fprintf ppf "accepted"
  | Rejected reason -> Format.fprintf ppf "rejected (%s)" reason
  | Hang -> Format.fprintf ppf "hang"
  | Crash c -> Format.fprintf ppf "crash (%s: %s)" (crash_id c) c.detail
