(* Tests for {!Pdf_util.Rng} (SplitMix64): determinism under equal
   seeds across the whole operation surface, copy semantics, and the
   independence of split streams. Reproducibility of every experiment in
   the repo reduces to these properties. *)

module Rng = Pdf_util.Rng

let qtest = QCheck_alcotest.to_alcotest

(* One draw of every kind, so determinism covers the full API, including
   the rejection-sampling paths in [int] and [choose]. *)
let mixed_draw rng =
  let b = Rng.bits64 rng in
  let i = Rng.int rng 1000 in
  let f = Rng.float rng 2.0 in
  let bo = Rng.bool rng in
  let c = Rng.char rng in
  let p = Rng.printable rng in
  let ch = Rng.choose rng [| 'x'; 'y'; 'z'; 'w' |] in
  let cl = Rng.choose_list rng [ 10; 20; 30 ] in
  let arr = Array.init 8 Fun.id in
  Rng.shuffle rng arr;
  (b, i, f, bo, c, p, ch, cl, Array.to_list arr)

let stream rng n = List.init n (fun _ -> mixed_draw rng)

let test_determinism =
  QCheck.Test.make ~name:"equal seeds produce equal streams" ~count:200
    QCheck.small_int (fun seed ->
      stream (Rng.make seed) 20 = stream (Rng.make seed) 20)

let test_distinct_seeds () =
  (* Not a theorem, but a regression tripwire: nearby seeds must not
     produce identical streams (SplitMix64 mixes the seed). *)
  let distinct = ref 0 in
  for seed = 0 to 49 do
    if stream (Rng.make seed) 4 <> stream (Rng.make (seed + 1)) 4 then
      incr distinct
  done;
  Alcotest.(check int) "all 50 adjacent-seed pairs differ" 50 !distinct

let test_copy =
  QCheck.Test.make ~name:"copy duplicates the stream mid-flight" ~count:200
    QCheck.small_int (fun seed ->
      let r = Rng.make seed in
      ignore (stream r 3);
      let c = Rng.copy r in
      stream r 10 = stream c 10)

let test_split_deterministic =
  QCheck.Test.make ~name:"split children of equal parents are equal"
    ~count:200 QCheck.small_int (fun seed ->
      let r1 = Rng.make seed and r2 = Rng.make seed in
      let c1 = Rng.split r1 and c2 = Rng.split r2 in
      stream c1 10 = stream c2 10 && stream r1 10 = stream r2 10)

let test_split_independent =
  QCheck.Test.make
    ~name:"draws from a split child never perturb the parent" ~count:200
    QCheck.small_int (fun seed ->
      (* Parent stream with the child left untouched... *)
      let r1 = Rng.make seed in
      let _c1 = Rng.split r1 in
      let parent_untouched = stream r1 10 in
      (* ...and with the child drained hard in between. *)
      let r2 = Rng.make seed in
      let c2 = Rng.split r2 in
      ignore (stream c2 50);
      stream r2 10 = parent_untouched)

let test_split_diverges () =
  (* The child must not replay the parent's continuation. *)
  let r = Rng.make 42 in
  let c = Rng.split r in
  Alcotest.(check bool) "child and parent streams differ" true
    (stream c 4 <> stream r 4)

let test_int_bounds =
  QCheck.Test.make ~name:"int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.make seed in
      List.for_all
        (fun _ ->
          let v = Rng.int r bound in
          0 <= v && v < bound)
        (List.init 50 Fun.id))

let test_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle yields a permutation" ~count:200
    QCheck.(pair small_int (int_range 0 50))
    (fun (seed, n) ->
      let r = Rng.make seed in
      let arr = Array.init n Fun.id in
      Rng.shuffle r arr;
      List.sort compare (Array.to_list arr) = List.init n Fun.id)

let test_printable_alphabet () =
  let r = Rng.make 9 in
  for _ = 1 to 2000 do
    let c = Rng.printable r in
    Alcotest.(check bool)
      (Printf.sprintf "printable %C" c)
      true
      ((c >= '\x20' && c <= '\x7e') || c = '\n' || c = '\t')
  done

(* The first draws of several seeds, recorded when the generator kept
   its state as a boxed [int64] field: a change of representation must
   keep every stream, the exposed state word and the split streams. Per
   seed: four [bits64] draws, the state after them, the first draw of a
   child split off there, and three [int 1000] draws of the parent after
   the split. *)
let golden =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L ],
      8709371129873690708L, 5085904676777434204L, [ 186; 913; 228 ] );
    ( 1,
      [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L;
        -846397198931878612L ],
      -3499300195895282119L, -1147685784756221562L, [ 782; 240; 294 ] );
    ( 3,
      [ -3405980900428447358L; 8025981027033294737L; 7393699452849804004L;
        -3227015326008685846L ],
      -7552178323821029052L, -238392829861497548L, [ 123; 858; 14 ] );
    ( 42,
      [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
        885919558081284366L ],
      2321553990214248054L, -6585662623018088301L, [ 115; 585; 986 ] );
    ( 2019,
      [ -1789226713155109777L; -205509540755430904L; 278896070679213573L;
        -4531554848261340719L ],
      -8870346640208125751L, -5324726681926921173L, [ 474; 454; 464 ] );
    ( -1,
      [ -6523613405836042406L; -5438901102636068674L; 5870046691785176337L;
        527077646590785223L ],
      3291635323040542159L, -7950595489705849638L, [ 921; 267; 583 ] );
  ]

let test_golden_draws () =
  List.iter
    (fun (seed, draws, state, child_draw, ints) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let r = Rng.make seed in
      Alcotest.(check (list int64)) (name "bits64") draws
        (List.init (List.length draws) (fun _ -> Rng.bits64 r));
      Alcotest.(check int64) (name "state") state (Rng.state r);
      let resumed = Rng.of_state (Rng.state r) in
      let child = Rng.split r in
      Alcotest.(check int64) (name "split child") child_draw (Rng.bits64 child);
      Alcotest.(check (list int)) (name "int") ints
        (List.init (List.length ints) (fun _ -> Rng.int r 1000));
      (* A generator rebuilt from the state word continues the stream. *)
      ignore (Rng.bits64 resumed);
      Alcotest.(check (list int)) (name "of_state continues") ints
        (List.init (List.length ints) (fun _ -> Rng.int resumed 1000)))
    golden

let () =
  Alcotest.run "rng"
    [
      ( "determinism",
        [
          qtest test_determinism;
          Alcotest.test_case "adjacent seeds differ" `Quick test_distinct_seeds;
          qtest test_copy;
          Alcotest.test_case "golden draws" `Quick test_golden_draws;
        ] );
      ( "split",
        [
          qtest test_split_deterministic;
          qtest test_split_independent;
          Alcotest.test_case "child diverges from parent" `Quick
            test_split_diverges;
        ] );
      ( "distribution",
        [
          qtest test_int_bounds;
          qtest test_shuffle_permutes;
          Alcotest.test_case "printable alphabet" `Quick
            test_printable_alphabet;
        ] );
    ]
