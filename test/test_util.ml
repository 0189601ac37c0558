module Rng = Pdf_util.Rng
module Charset = Pdf_util.Charset
module Pqueue = Pdf_util.Pqueue
module Stats = Pdf_util.Stats
module Render = Pdf_util.Render

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* {1 Rng} *)

let test_rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.make 1 and b = Rng.make 2 in
  let draws rng = List.init 8 (fun _ -> Rng.bits64 rng) in
  Alcotest.(check bool) "different seeds differ" false (draws a = draws b)

let test_rng_copy () =
  let a = Rng.make 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copies aligned" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.make 9 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs from parent" false
    (List.init 8 (fun _ -> Rng.bits64 a) = List.init 8 (fun _ -> Rng.bits64 b))

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.make seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in [0, bound)" ~count:200
    QCheck.(pair small_int (float_range 0.001 100.0))
    (fun (seed, bound) ->
      let rng = Rng.make seed in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let test_rng_printable () =
  let rng = Rng.make 3 in
  for _ = 1 to 500 do
    let c = Rng.printable rng in
    if not ((c >= ' ' && c <= '~') || c = '\n' || c = '\t') then
      Alcotest.failf "not printable: %C" c
  done

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"Rng.shuffle preserves the multiset" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let rng = Rng.make seed in
      let arr = Array.of_list xs in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let test_rng_choose () =
  let rng = Rng.make 11 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let x = Rng.choose rng arr in
    Alcotest.(check bool) "member" true (Array.exists (( = ) x) arr)
  done;
  Alcotest.check_raises "empty choose_list" (Invalid_argument "Rng.choose_list: empty list")
    (fun () -> ignore (Rng.choose_list rng []))

(* {1 Charset} *)

let char_gen = QCheck.map Char.chr (QCheck.int_range 0 255)

let prop_charset_add_mem =
  QCheck.Test.make ~name:"mem after add" ~count:500 char_gen (fun c ->
      Charset.mem c (Charset.add c Charset.empty))

let prop_charset_remove =
  QCheck.Test.make ~name:"not mem after remove" ~count:500 char_gen (fun c ->
      not (Charset.mem c (Charset.remove c Charset.full)))

let prop_charset_union =
  QCheck.Test.make ~name:"union membership" ~count:500
    QCheck.(triple char_gen (small_list char_gen) (small_list char_gen))
    (fun (c, xs, ys) ->
      let a = Charset.of_list xs and b = Charset.of_list ys in
      Charset.mem c (Charset.union a b) = (Charset.mem c a || Charset.mem c b))

let prop_charset_inter =
  QCheck.Test.make ~name:"inter membership" ~count:500
    QCheck.(triple char_gen (small_list char_gen) (small_list char_gen))
    (fun (c, xs, ys) ->
      let a = Charset.of_list xs and b = Charset.of_list ys in
      Charset.mem c (Charset.inter a b) = (Charset.mem c a && Charset.mem c b))

let prop_charset_complement =
  QCheck.Test.make ~name:"complement membership" ~count:500
    QCheck.(pair char_gen (small_list char_gen))
    (fun (c, xs) ->
      let a = Charset.of_list xs in
      Charset.mem c (Charset.complement a) = not (Charset.mem c a))

let prop_charset_cardinal =
  QCheck.Test.make ~name:"cardinal counts distinct members" ~count:300
    QCheck.(small_list char_gen)
    (fun xs ->
      Charset.cardinal (Charset.of_list xs) = List.length (List.sort_uniq compare xs))

let test_charset_basics () =
  check Alcotest.int "full" 256 (Charset.cardinal Charset.full);
  check Alcotest.int "empty" 0 (Charset.cardinal Charset.empty);
  check Alcotest.int "digits" 10 (Charset.cardinal Charset.digits);
  check Alcotest.int "letters" 52 (Charset.cardinal Charset.letters);
  check Alcotest.int "printable" 95 (Charset.cardinal Charset.printable);
  Alcotest.(check bool) "range empty when inverted" true
    (Charset.is_empty (Charset.range 'z' 'a'));
  check
    Alcotest.(list char)
    "to_list sorted" [ 'a'; 'b'; 'c' ]
    (Charset.to_list (Charset.of_string "cba"));
  check Alcotest.(option char) "min_elt" (Some 'a') (Charset.min_elt (Charset.of_string "ba"));
  check Alcotest.(option char) "min_elt empty" None (Charset.min_elt Charset.empty)

let prop_charset_pick_member =
  QCheck.Test.make ~name:"pick returns a member" ~count:300
    QCheck.(pair small_int (small_list char_gen))
    (fun (seed, xs) ->
      let set = Charset.of_list xs in
      let rng = Rng.make seed in
      match Charset.pick rng set with
      | None -> Charset.is_empty set
      | Some c -> Charset.mem c set)

(* Sets from a few random runs and whole ranges, so members land on
   every word boundary and sets run from empty to full. *)
let charset_arb =
  QCheck.make ~print:(fun set -> Format.asprintf "%a" Charset.pp set)
    QCheck.Gen.(
      list_size (int_range 0 6)
        (pair (int_range 0 255) (int_range 0 255)
        >|= fun (a, b) -> Charset.range (Char.chr (min a b)) (Char.chr (max a b)))
      >>= fun ranges ->
      small_list (int_range 0 255) >|= fun cs ->
      List.fold_left Charset.union
        (Charset.of_list (List.map Char.chr cs))
        ranges)

let prop_charset_nth =
  QCheck.Test.make ~name:"nth = List.nth of to_list" ~count:500 charset_arb
    (fun set ->
      let members = Charset.to_list set in
      let n = List.length members in
      let out_of_range k =
        match Charset.nth set k with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      List.for_all2 (fun k c -> Charset.nth set k = c) (List.init n Fun.id) members
      && out_of_range n && out_of_range (-1))

(* [pick] against the closure-based walk it replaced: same member, same
   generator state afterwards. *)
let model_pick rng set =
  let n = List.length (Charset.to_list set) in
  if n = 0 then None
  else begin
    let k = Rng.int rng n in
    let found = ref None and seen = ref 0 in
    (try
       Charset.iter
         (fun c ->
           if !seen = k then begin
             found := Some c;
             raise Exit
           end;
           incr seen)
         set
     with Exit -> ());
    !found
  end

let prop_charset_pick_model =
  QCheck.Test.make ~name:"pick = closure-based model" ~count:500
    QCheck.(pair small_nat charset_arb)
    (fun (seed, set) ->
      let a = Rng.make seed and b = Rng.make seed in
      let picks rng f = List.init 5 (fun _ -> f rng set) in
      picks a Charset.pick = picks b model_pick && Rng.state a = Rng.state b)

let test_charset_subset () =
  Alcotest.(check bool) "digits subset printable" true
    (Charset.subset Charset.digits Charset.printable);
  Alcotest.(check bool) "printable not subset digits" false
    (Charset.subset Charset.printable Charset.digits)

(* {1 Pqueue} *)

let prop_pqueue_pop_sorted =
  QCheck.Test.make ~name:"pops descend by priority" ~count:300
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun prios ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) prios;
      let popped = ref [] in
      let rec go () =
        match Pqueue.pop q with
        | None -> ()
        | Some i ->
          popped := List.nth prios i :: !popped;
          go ()
      in
      go ();
      let order = List.rev !popped in
      (* Pops must be non-increasing and a permutation of the input;
         equal priorities may interleave by insertion order. *)
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [] | [ _ ] -> true
      in
      non_increasing order && List.sort compare order = List.sort compare prios)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "first";
  Pqueue.push q 1.0 "second";
  Pqueue.push q 1.0 "third";
  check Alcotest.(option string) "tie: insertion order" (Some "first") (Pqueue.pop q);
  check Alcotest.(option string) "tie: insertion order" (Some "second") (Pqueue.pop q)

let test_pqueue_rerank () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 10;
  Pqueue.push q 2.0 20;
  Pqueue.push q 3.0 30;
  Pqueue.update q (fun v -> Some (-.float_of_int v));
  check Alcotest.(option int) "update inverts order" (Some 10) (Pqueue.pop q);
  check Alcotest.(option int) "update inverts order" (Some 20) (Pqueue.pop q)

let test_pqueue_drop_worst () =
  let q = Pqueue.create () in
  for i = 1 to 10 do
    Pqueue.push q (float_of_int i) i
  done;
  Pqueue.drop_worst q 3;
  check Alcotest.int "truncated" 3 (Pqueue.length q);
  let popped = List.init 3 (fun _ -> Option.get (Pqueue.pop q)) in
  check Alcotest.(list int) "kept the best" [ 10; 9; 8 ] popped

let test_pqueue_empty () =
  let q = Pqueue.create () in
  check Alcotest.int "length" 0 (Pqueue.length q);
  check Alcotest.(option int) "pop empty" None (Pqueue.pop q);
  Alcotest.check_raises "top empty" (Invalid_argument "Pqueue.top: empty queue")
    (fun () -> ignore (Pqueue.top q))

(* Regression test for the heap's space leak: a popped (or truncated)
   entry must not stay strongly reachable from the queue's backing
   array. Track the payloads through weak pointers and demand the GC can
   reclaim them while the queue itself is still alive. *)
let test_pqueue_no_retention () =
  let q = Pqueue.create () in
  let w = Weak.create 2 in
  (* Local function so the payloads' only strong refs are the queue's. *)
  let fill () =
    let a = Bytes.make 16 'a' and b = Bytes.make 16 'b' in
    Weak.set w 0 (Some a);
    Weak.set w 1 (Some b);
    Pqueue.push q 2.0 a;
    Pqueue.push q 1.0 b
  in
  fill ();
  ignore (Pqueue.pop q);
  (* [b] leaves via truncation rather than popping. *)
  Pqueue.drop_worst q 0;
  Gc.full_major ();
  Alcotest.(check bool) "popped payload reclaimed" false (Weak.check w 0);
  Alcotest.(check bool) "truncated payload reclaimed" false (Weak.check w 1);
  Alcotest.(check bool) "queue still usable" true
    (Pqueue.push q 1.0 (Bytes.make 1 'c');
     Pqueue.pop q <> None)

let test_pqueue_iter_snapshot () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (1.0, 1); (3.0, 3); (2.0, 2) ];
  let seen = ref [] in
  Pqueue.iter_ranked (fun v -> seen := v :: !seen) q;
  check Alcotest.(list int) "iter_ranked visits best first" [ 3; 2; 1 ] (List.rev !seen);
  check
    Alcotest.(list (pair (float 0.0) int))
    "snapshot in insertion order"
    [ (1.0, 1); (3.0, 3); (2.0, 2) ]
    (Pqueue.snapshot q);
  check Alcotest.int "top is max" 3 (Pqueue.top q)

(* {1 Stats} *)

let test_stats () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "stddev constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "stddev" (sqrt (2.0 /. 3.0)) (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "median" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "p100" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "ratio" 50.0 (Stats.ratio 1 2);
  check (Alcotest.float 1e-9) "ratio zero den" 0.0 (Stats.ratio 1 0)

(* Nearest-rank reference shared by the percentile properties below. *)
let nearest_rank p xs =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let percentile_gen =
  QCheck.(
    pair (float_bound_inclusive 100.0)
      (list_of_size Gen.(1 -- 40) (float_bound_inclusive 1e6)))

let prop_percentile_nearest_rank =
  QCheck.Test.make ~name:"percentile is nearest-rank" ~count:500 percentile_gen
    (fun (p, xs) -> Stats.percentile p xs = nearest_rank p xs)

let prop_percentile_boundaries =
  QCheck.Test.make ~name:"percentile boundaries: p=0 is min, p=100 is max"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_inclusive 1e6))
    (fun xs ->
      Stats.percentile 0.0 xs = Stats.minimum xs
      && Stats.percentile 100.0 xs = Stats.maximum xs)

let prop_percentile_single =
  QCheck.Test.make ~name:"percentile of a single element is that element"
    ~count:200
    QCheck.(pair (float_bound_inclusive 100.0) (float_bound_inclusive 1e6))
    (fun (p, x) -> Stats.percentile p [ x ] = x)

let prop_percentile_ties =
  QCheck.Test.make ~name:"percentile of an all-equal list is that value"
    ~count:200
    QCheck.(
      triple (float_bound_inclusive 100.0) (int_range 1 30)
        (float_bound_inclusive 1e6))
    (fun (p, n, x) -> Stats.percentile p (List.init n (fun _ -> x)) = x)

(* {1 Stats.Histogram} *)

module Hist = Stats.Histogram

let hist_of xs =
  let h = Hist.create () in
  List.iter (Hist.record h) xs;
  h

let sample_gen = QCheck.(list_of_size Gen.(0 -- 60) (int_range 0 10_000_000))

let prop_hist_merge_associative =
  QCheck.Test.make ~name:"Histogram.merge is associative and commutative"
    ~count:200
    QCheck.(triple sample_gen sample_gen sample_gen)
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      Hist.equal
        (Hist.merge (Hist.merge ha hb) hc)
        (Hist.merge ha (Hist.merge hb hc))
      && Hist.equal (Hist.merge ha hb) (Hist.merge hb ha)
      && Hist.equal (Hist.merge ha hb) (hist_of (a @ b)))

let prop_hist_bucket_monotone =
  QCheck.Test.make
    ~name:"Histogram buckets: lower <= v < next lower, index monotone"
    ~count:1000
    QCheck.(pair (int_range 0 max_int) (int_range 0 max_int))
    (fun (v, w) ->
      let i = Hist.bucket_index v in
      Hist.bucket_lower i <= v
      && (i + 1 >= Hist.num_buckets || v < Hist.bucket_lower (i + 1))
      && if v <= w then i <= Hist.bucket_index w else i >= Hist.bucket_index w)

let prop_hist_percentile_exact_small =
  QCheck.Test.make
    ~name:"Histogram percentile is exact below the unit-bucket limit"
    ~count:300
    QCheck.(
      pair (float_bound_inclusive 100.0)
        (list_of_size Gen.(1 -- 60) (int_range 0 63)))
    (fun (p, xs) ->
      let exact =
        int_of_float (nearest_rank p (List.map float_of_int xs))
      in
      Hist.percentile (hist_of xs) p = exact)

let prop_hist_percentile_bounded_error =
  QCheck.Test.make
    ~name:"Histogram percentile within 1/32 of exact nearest-rank"
    ~count:300
    QCheck.(
      pair (float_bound_inclusive 100.0)
        (list_of_size Gen.(1 -- 60) (int_range 0 50_000_000)))
    (fun (p, xs) ->
      let exact = int_of_float (nearest_rank p (List.map float_of_int xs)) in
      let approx = Hist.percentile (hist_of xs) p in
      approx <= exact
      && float_of_int (exact - approx) <= float_of_int exact /. 32.0 +. 1.0)

let prop_hist_accumulators =
  QCheck.Test.make ~name:"Histogram count/sum/min/max are exact" ~count:300
    sample_gen (fun xs ->
      let h = hist_of xs in
      Hist.count h = List.length xs
      && Hist.sum h = List.fold_left ( + ) 0 xs
      && (xs = [] || Hist.min_value h = List.fold_left min max_int xs)
      && (xs = [] || Hist.max_value h = List.fold_left max 0 xs))

(* {1 Render} *)

let render_to_string f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let found = ref false in
  for i = 0 to hl - nl do
    if String.sub haystack i nl = needle then found := true
  done;
  !found

let test_render_table () =
  let out =
    render_to_string (fun ppf ->
        Render.table ppf ~title:"T" ~header:[ "a"; "b" ]
          [ [ "1"; "22" ]; [ "333"; "4" ] ])
  in
  List.iter
    (fun cell ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" cell) true (contains out cell))
    [ "333"; "22"; "| a " ]

let test_render_table_arity () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Render.table: row arity mismatch") (fun () ->
      render_to_string (fun ppf ->
          Render.table ppf ~title:"T" ~header:[ "a"; "b" ] [ [ "1" ] ])
      |> ignore)

let test_render_bar_chart () =
  let out =
    render_to_string (fun ppf ->
        Render.bar_chart ppf ~title:"coverage" [ ("x", 50.0); ("y", 100.0) ])
  in
  Alcotest.(check bool) "nonempty" true (String.length out > 10)

let test_render_grouped () =
  let out =
    render_to_string (fun ppf ->
        Render.grouped_bar_chart ppf ~title:"t" ~series:[ "A"; "B" ]
          [ ("g", [ 1.0; 2.0 ]) ])
  in
  Alcotest.(check bool) "nonempty" true (String.length out > 10);
  Alcotest.check_raises "series mismatch"
    (Invalid_argument "Render.grouped_bar_chart: series arity mismatch") (fun () ->
      render_to_string (fun ppf ->
          Render.grouped_bar_chart ppf ~title:"t" ~series:[ "A" ] [ ("g", [ 1.0; 2.0 ]) ])
      |> ignore)

(* {1 Vec: copy-on-write prefix borrowing}

   Snapshots share a run's recording buffers through [Vec.of_prefix];
   resuming must never scribble on the parent's arrays. *)

module Vec = Pdf_util.Vec

let test_vec_of_prefix_cow () =
  let arr = [| 1; 2; 3; 4 |] in
  let v = Vec.of_prefix arr ~len:2 0 in
  check Alcotest.int "borrowed length" 2 (Vec.length v);
  check Alcotest.int "reads through" 2 (Vec.get v 1);
  Vec.push v 99;
  Vec.push v 100;
  check Alcotest.(array int) "borrowed array untouched" [| 1; 2; 3; 4 |] arr;
  check Alcotest.(list int) "prefix + pushes" [ 1; 2; 99; 100 ] (Vec.to_list v);
  (* Two vectors can borrow the same prefix independently (multi-shot
     snapshots). *)
  let w = Vec.of_prefix arr ~len:3 0 in
  Vec.push w 7;
  check Alcotest.(list int) "independent borrow" [ 1; 2; 3; 7 ] (Vec.to_list w);
  check Alcotest.(list int) "first borrow unaffected" [ 1; 2; 99; 100 ]
    (Vec.to_list v);
  (* Boundary lengths. *)
  let empty = Vec.of_prefix arr ~len:0 0 in
  check Alcotest.int "empty borrow" 0 (Vec.length empty);
  let full = Vec.of_prefix arr ~len:4 0 in
  check Alcotest.int "full borrow" 4 (Vec.length full);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Vec.of_prefix") (fun () ->
      ignore (Vec.of_prefix arr ~len:5 0))

(* A reused context empties its buffers per run: the capacity stays, the
   vacated slots hold the dummy again, and a borrowed array — even one
   borrowed whole — is never written. *)
let test_vec_clear () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  let backing = Vec.backing v in
  Vec.clear v;
  check Alcotest.int "empty" 0 (Vec.length v);
  check Alcotest.bool "capacity kept" true (Vec.backing v == backing);
  check Alcotest.(list int) "slots vacated" [ 0; 0; 0 ]
    (Array.to_list (Array.sub backing 0 3));
  Vec.push v 9;
  check Alcotest.(list int) "refilled in place" [ 9 ] (Vec.to_list v);
  check Alcotest.bool "no new array" true (Vec.backing v == backing);
  let arr = [| 1; 2; 3 |] in
  let whole = Vec.of_prefix arr ~len:3 0 in
  Vec.clear whole;
  Vec.push whole 7;
  check Alcotest.(list int) "borrowed array untouched" [ 1; 2; 3 ] (Array.to_list arr);
  check Alcotest.(list int) "cleared borrow refills" [ 7 ] (Vec.to_list whole)

(* {1 Atomic_file: crash-safe writes} *)

module Atomic_file = Pdf_util.Atomic_file

let in_temp_dir f =
  let dir = Filename.temp_file "pdf_atomic" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_atomic_write_read_roundtrip () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "out.bin" in
      let payload = "binary\x00payload\nwith newline" in
      Atomic_file.write_string path payload;
      check Alcotest.string "round-trip" payload (Atomic_file.read_string path);
      Atomic_file.write_string path "second";
      check Alcotest.string "replaces in place" "second"
        (Atomic_file.read_string path);
      check Alcotest.(array string) "no temp residue" [| "out.bin" |]
        (Sys.readdir dir))

let test_atomic_with_out_commit_and_abort () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "report.txt" in
      Atomic_file.with_out path (fun oc -> output_string oc "good");
      check Alcotest.string "committed on success" "good"
        (Atomic_file.read_string path);
      (match
         Atomic_file.with_out path (fun oc ->
             output_string oc "half-written";
             failwith "interrupted")
       with
      | () -> Alcotest.fail "with_out swallowed the exception"
      | exception Failure _ -> ());
      check Alcotest.string "previous content intact after abort" "good"
        (Atomic_file.read_string path);
      check Alcotest.(array string) "aborted temp removed" [| "report.txt" |]
        (Sys.readdir dir))

let test_atomic_stage_abort_idempotent () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "never.txt" in
      let st = Atomic_file.stage path in
      output_string (Atomic_file.channel st) "doomed";
      Atomic_file.abort st;
      Atomic_file.abort st;
      check Alcotest.bool "destination never created" false (Sys.file_exists path);
      check Alcotest.(array string) "directory clean" [||] (Sys.readdir dir))

(* {1 Envelope} *)

module Envelope = Pdf_util.Envelope

let spec = { Envelope.magic = "pftest"; version = 3; noun = "test envelope" }

(* An envelope around [payload] bytes, digest intact. *)
let wrap payload =
  spec.magic ^ String.make 1 (Char.chr spec.version) ^ Digest.string payload ^ payload

let test_envelope_round_trip_in_place () =
  let v = ([ 1; 2; 3 ], "three") in
  let e = Envelope.encode spec v in
  check Alcotest.string "encode is the documented layout"
    (wrap (Marshal.to_string v [])) e;
  (* Decoded where it sits, between unrelated bytes. *)
  let s = "junk" ^ e ^ "more junk" in
  match
    (Envelope.decode spec s ~pos:4 ~len:(String.length e)
      : (int list * string, string) result)
  with
  | Ok v' -> check Alcotest.bool "round trip" true (v = v')
  | Error m -> Alcotest.fail m

(* [Marshal.from_string] reads to the end of the image, wherever the
   envelope ends: an image with a tail, or one cut short while the rest
   of its bytes follow the envelope, must be unreadable even though its
   digest, which covers exactly the envelope's payload, is intact. *)
let test_envelope_payload_size () =
  let image = Marshal.to_string (List.init 50 Fun.id) [] in
  let unreadable what s ~len =
    match (Envelope.decode spec s ~pos:0 ~len : (int list, string) result) with
    | Ok _ -> Alcotest.failf "%s decoded" what
    | Error m ->
      check Alcotest.string what "test envelope payload unreadable (truncated or incompatible)" m
  in
  let tailed = wrap (image ^ "xx") in
  unreadable "image with a tail" tailed ~len:(String.length tailed);
  let cut = String.length image - 3 in
  let short = wrap (String.sub image 0 cut) in
  unreadable "image cut short" (short ^ String.sub image cut 3) ~len:(String.length short);
  let tiny = wrap "abc" in
  unreadable "payload shorter than a header" tiny ~len:(String.length tiny)

let () =
  Alcotest.run "pdf_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "printable alphabet" `Quick test_rng_printable;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          qtest prop_rng_int_bounds;
          qtest prop_rng_float_bounds;
          qtest prop_rng_shuffle_permutes;
        ] );
      ( "charset",
        [
          Alcotest.test_case "basics" `Quick test_charset_basics;
          Alcotest.test_case "subset" `Quick test_charset_subset;
          qtest prop_charset_add_mem;
          qtest prop_charset_remove;
          qtest prop_charset_union;
          qtest prop_charset_inter;
          qtest prop_charset_complement;
          qtest prop_charset_cardinal;
          qtest prop_charset_pick_member;
          qtest prop_charset_nth;
          qtest prop_charset_pick_model;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "rerank" `Quick test_pqueue_rerank;
          Alcotest.test_case "drop_worst" `Quick test_pqueue_drop_worst;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "iter_ranked/snapshot/top" `Quick test_pqueue_iter_snapshot;
          Alcotest.test_case "no retention after pop" `Quick test_pqueue_no_retention;
          qtest prop_pqueue_pop_sorted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive stats" `Quick test_stats;
          qtest prop_percentile_nearest_rank;
          qtest prop_percentile_boundaries;
          qtest prop_percentile_single;
          qtest prop_percentile_ties;
        ] );
      ( "histogram",
        [
          qtest prop_hist_merge_associative;
          qtest prop_hist_bucket_monotone;
          qtest prop_hist_percentile_exact_small;
          qtest prop_hist_percentile_bounded_error;
          qtest prop_hist_accumulators;
        ] );
      ( "vec",
        [
          Alcotest.test_case "of_prefix copy-on-write" `Quick test_vec_of_prefix_cow;
          Alcotest.test_case "clear keeps capacity" `Quick test_vec_clear;
        ] );
      ( "atomic-file",
        [
          Alcotest.test_case "write/read round-trip" `Quick
            test_atomic_write_read_roundtrip;
          Alcotest.test_case "with_out commits and aborts" `Quick
            test_atomic_with_out_commit_and_abort;
          Alcotest.test_case "abort is idempotent" `Quick
            test_atomic_stage_abort_idempotent;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "round trip in place" `Quick
            test_envelope_round_trip_in_place;
          Alcotest.test_case "payload size must match" `Quick
            test_envelope_payload_size;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_render_table;
          Alcotest.test_case "table arity" `Quick test_render_table_arity;
          Alcotest.test_case "bar chart" `Quick test_render_bar_chart;
          Alcotest.test_case "grouped chart" `Quick test_render_grouped;
        ] );
    ]
