(** Reference values reported by the paper, used to print paper-vs-measured
    comparisons in the experiment reports and EXPERIMENTS.md. *)

val table1_loc : (string * int) list
(** Subject name → lines of code, Table 1. *)

val headline_short : (Tool.name * float) list
(** §5.3: share of tokens of length ≤ 3 found, across all subjects. *)

val headline_long : (Tool.name * float) list
(** §5.3: share of tokens of length > 3 found. *)

val coverage_order : (string * string) list
(** Figure 2 qualitative outcome per subject: which tool achieved the
    highest branch coverage (subject → tool display name). *)
