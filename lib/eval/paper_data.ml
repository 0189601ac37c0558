let table1_loc =
  [ ("ini", 293); ("csv", 297); ("json", 2483); ("tinyc", 191); ("mjs", 10920) ]

let headline_short = [ (Tool.Afl, 91.5); (Tool.Klee, 28.7); (Tool.Pfuzzer, 81.9) ]
let headline_long = [ (Tool.Afl, 5.0); (Tool.Klee, 7.5); (Tool.Pfuzzer, 52.5) ]

let coverage_order =
  [
    ("ini", "AFL");
    ("csv", "AFL");
    ("json", "AFL");
    ("tinyc", "pFuzzer");
    ("mjs", "AFL");
  ]
