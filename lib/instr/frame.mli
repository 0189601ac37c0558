(** Call-frame events: which parser function was active over which input
    span. This is the derivation structure AutoGram-style grammar mining
    (paper §7.4) consumes: a nonterminal per parser function, with the
    input characters consumed inside it as its yield. *)

type event =
  | Enter of { site : Site.t; pos : int }
  | Exit of { pos : int }
