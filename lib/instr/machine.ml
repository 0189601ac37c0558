module Tchar = Pdf_taint.Tchar

(* A step-wise (continuation-style) recognizer. The parser never touches
   the input stream directly: every read is reified as a [Peek] or
   [Next] step whose continuation receives the character *and* the
   context to keep parsing with. Because continuations are ordinary
   immutable closures that capture no context (the context always
   arrives as an argument), a pending step is multi-shot: the runner can
   deliver it once against the parent's context and again, later,
   against a fresh context restored from a snapshot (see {!Runner}'s
   journaled execution). *)
type step =
  | Done
  | Peek of (Tchar.t option -> Ctx.t -> step)
  | Next of (Tchar.t option -> Ctx.t -> step)

type recognizer = Ctx.t -> step
