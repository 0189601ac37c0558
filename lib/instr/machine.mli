(** Step-wise (resumable) recognizers.

    A recognizer expressed in this form performs every input read
    through an explicit {!step}, so the run can be suspended at any
    read boundary — the instant the parser is about to observe input
    position [p] for the first time — and resumed later against a
    different context whose observation state matches.

    The contract that makes suspension sound:

    - continuations must not capture a [Ctx.t] across a step: the
      context to use always arrives as the continuation's second
      argument (shadow it);
    - all input observations go through [Peek]/[Next] steps — never
      call [Ctx.peek]/[Ctx.next]/[Ctx.at_eof] directly from recognizer
      code, since a direct probe would not be a suspension point and
      would break prefix/child equivalence;
    - values derived from already-read input (characters, tokens,
      counters) may be captured freely: they are identical for every
      input sharing the prefix.

    Under these rules a pending step is {e multi-shot}: one snapshot can
    serve any number of children that extend the same prefix. *)

type step =
  | Done  (** the recognizer accepted (ran to completion) *)
  | Peek of (Pdf_taint.Tchar.t option -> Ctx.t -> step)
      (** observe the character at the cursor without consuming it *)
  | Next of (Pdf_taint.Tchar.t option -> Ctx.t -> step)
      (** observe and consume the character at the cursor *)

type recognizer = Ctx.t -> step
(** Runs synchronously up to the first read (or completion). A driver
    answers [Peek] with {!Ctx.peek} and [Next] with {!Ctx.next}, as
    [Runner.exec_machine] does. *)
