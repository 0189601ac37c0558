module Taint = Pdf_taint.Taint
module Tchar = Pdf_taint.Tchar

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_taint_basics () =
  Alcotest.(check bool) "empty is empty" true (Taint.is_empty Taint.empty);
  let t = Taint.singleton 3 in
  Alcotest.(check bool) "singleton mem" true (Taint.mem 3 t);
  Alcotest.(check bool) "singleton not mem" false (Taint.mem 4 t);
  check Alcotest.(option int) "max of singleton" (Some 3) (Taint.max_index t);
  check Alcotest.(option int) "min of singleton" (Some 3) (Taint.min_index t);
  check Alcotest.(option int) "max of empty" None (Taint.max_index Taint.empty);
  check Alcotest.int "cardinal" 1 (Taint.cardinal t)

let prop_taint_union =
  QCheck.Test.make ~name:"union membership" ~count:300
    QCheck.(triple small_nat (small_list small_nat) (small_list small_nat))
    (fun (i, xs, ys) ->
      let a = Taint.of_list xs and b = Taint.of_list ys in
      Taint.mem i (Taint.union a b) = (Taint.mem i a || Taint.mem i b))

let prop_taint_max =
  QCheck.Test.make ~name:"max_index is the maximum" ~count:300
    QCheck.(small_list small_nat)
    (fun xs ->
      match (Taint.max_index (Taint.of_list xs), xs) with
      | None, [] -> true
      | None, _ :: _ -> false
      | Some m, _ -> List.for_all (fun x -> x <= m) xs && List.mem m xs)

let prop_taint_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list sorts and dedups" ~count:300
    QCheck.(small_list small_nat)
    (fun xs -> Taint.to_list (Taint.of_list xs) = List.sort_uniq compare xs)

let test_tchar () =
  let a = Tchar.input 2 'x' in
  check Alcotest.char "payload" 'x' a.Tchar.ch;
  Alcotest.(check bool) "tainted" true (Tchar.is_tainted a);
  Alcotest.(check bool) "constant untainted" false (Tchar.is_tainted (Tchar.untainted 'k'));
  check Alcotest.int "code" (Char.code 'x') (Tchar.code a);
  let upper = Tchar.map Char.uppercase_ascii a in
  check Alcotest.char "map payload" 'X' upper.Tchar.ch;
  Alcotest.(check bool) "map keeps taint" true (Taint.mem 2 upper.Tchar.taint);
  let b = Tchar.input 5 'y' in
  let combined = Tchar.combine (fun c _ -> c) a b in
  Alcotest.(check bool) "combine accumulates taints" true
    (Taint.mem 2 combined.Tchar.taint && Taint.mem 5 combined.Tchar.taint)

(* A token's taint, the union of its characters' taints, is exactly the
   set of their positions, in any order and with repeats. *)
let prop_token_taint_union =
  QCheck.Test.make ~name:"string taint is the union of char taints" ~count:300
    QCheck.(small_list small_nat)
    (fun idxs ->
      let t =
        List.fold_left
          (fun t i -> Taint.union t (Tchar.input i 'a').Tchar.taint)
          Taint.empty idxs
      in
      Taint.to_list t = List.sort_uniq compare idxs)

let () =
  Alcotest.run "pdf_taint"
    [
      ( "taint",
        [
          Alcotest.test_case "basics" `Quick test_taint_basics;
          qtest prop_taint_union;
          qtest prop_taint_max;
          qtest prop_taint_roundtrip;
        ] );
      ("tchar", [ Alcotest.test_case "tainted chars" `Quick test_tchar ]);
      ("token", [ qtest prop_token_taint_union ]);
    ]
