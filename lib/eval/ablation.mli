(** The design-argument experiments of DESIGN.md §4 beside the paper's
    main grid: the A1–A6 ablations (search strategy, heuristic terms,
    grammar mining, table-driven parsers, token taints, semantic
    checks), the §6.2 AFL → pFuzzer → KLEE pipeline (P1), and the §4
    instrumentation overhead (B1). *)

val report : Format.formatter -> budget_units:int -> unit
(** Run and print every experiment in that order. [budget_units] is the
    grid's per-(tool, subject) budget: the ablations run budget/100
    pFuzzer executions on paren, json and the table-driven parsers and
    budget/40 on tinyC, the pipeline shares the whole budget. Every
    table is deterministic for a given budget except B1, which is wall
    clock and printed last. *)
