module Taint = Pdf_taint.Taint
module Tchar = Pdf_taint.Tchar
module Tstring = Pdf_taint.Tstring

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

let test_tstring_basics () =
  let s = Tstring.of_string "abc" in
  check Alcotest.int "length" 3 (Tstring.length s);
  check Alcotest.string "to_string" "abc" (Tstring.to_string s);
  Alcotest.(check bool) "constant string has no taint" true
    (Taint.is_empty (Tstring.taint s));
  let t = Tstring.of_input "hi" 0 2 in
  check Alcotest.string "of_input payload" "hi" (Tstring.to_string t);
  check Alcotest.(list int) "taint union" [ 0; 1 ] (Taint.to_list (Tstring.taint t));
  check Alcotest.(list int) "per-char taint" [ 1 ]
    (Taint.to_list (Tstring.taint_of_char t 1))

let test_tstring_ops () =
  let t = Tstring.of_input "----xy" 4 2 in
  check Alcotest.(list int) "of_input taints from pos" [ 4; 5 ]
    (Taint.to_list (Tstring.taint t));
  let t2 = Tstring.append_char t (Tchar.input 6 'z') in
  check Alcotest.string "append" "xyz" (Tstring.to_string t2);
  check Alcotest.int "append leaves original" 2 (Tstring.length t);
  let c = Tstring.concat t t2 in
  check Alcotest.string "concat" "xyxyz" (Tstring.to_string c);
  let sub = Tstring.sub c 2 3 in
  check Alcotest.string "sub" "xyz" (Tstring.to_string sub);
  Alcotest.(check bool) "equal_payload ignores taints" true
    (Tstring.equal_payload t2 (Tstring.of_string "xyz"));
  Alcotest.(check bool) "equal_payload detects difference" false
    (Tstring.equal_payload t2 (Tstring.of_string "xyw"));
  Alcotest.(check bool) "equal_payload detects length" false
    (Tstring.equal_payload t2 (Tstring.of_string "xy"))

let prop_tstring_roundtrip =
  QCheck.Test.make ~name:"of_string/to_string round trip" ~count:300
    QCheck.printable_string
    (fun s -> Tstring.to_string (Tstring.of_string s) = s)

let prop_tstring_taint_union =
  QCheck.Test.make ~name:"string taint is the union of char taints" ~count:300
    QCheck.(small_list small_nat)
    (fun idxs ->
      let s =
        List.fold_left
          (fun s i -> Tstring.append_char s (Tchar.input i 'a'))
          Tstring.empty idxs
      in
      Taint.to_list (Tstring.taint s) = List.sort_uniq compare idxs)

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
      ( "tstring",
        [
          Alcotest.test_case "basics" `Quick test_tstring_basics;
          Alcotest.test_case "operations" `Quick test_tstring_ops;
          qtest prop_tstring_roundtrip;
          qtest prop_tstring_taint_union;
        ] );
    ]
