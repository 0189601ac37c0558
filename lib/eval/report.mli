(** Rendering of every table and figure of the paper's evaluation from an
    {!Experiment.t}, with the paper's reported values alongside for
    comparison. *)

val token_inventory : Format.formatter -> Pdf_subjects.Subject.t -> unit
(** Tables 2–4: a subject's tokens grouped by length. *)

val figure_2 : Format.formatter -> Experiment.t -> unit
(** Figure 2: branch coverage per subject and tool (bar chart), plus the
    paper's qualitative winner per subject. *)

val figure_3 : Format.formatter -> Experiment.t -> unit
(** Figure 3: tokens generated per subject, tool and token length. *)

val full : Format.formatter -> Experiment.t -> unit
(** Table 1 (the evaluation subjects), the token inventories, Figures 2
    and 3, and the §5.3 aggregate shares for short (≤ 3) and long (> 3)
    tokens measured vs paper — in paper order — followed by the
    incremental-execution accounting, throughput and the resilience
    summary. *)
