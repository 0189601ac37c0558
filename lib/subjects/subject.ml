type machine = |

type t = {
  name : string;
  description : string;
  registry : Pdf_instr.Site.registry;
  parse : Pdf_instr.Ctx.t -> unit;
  machine : machine option;
  fuel : int;
  tokens : Token.t list;
  tokenize : string -> string list;
  original_loc : int;
}

let run ?track_comparisons ?track_trace ?track_frames t input =
  Pdf_instr.Runner.exec ~registry:t.registry ~parse:t.parse ~fuel:t.fuel
    ?track_comparisons ?track_trace ?track_frames input

let exec_journaled _ (m : machine) _ = match m with _ -> .
let accepts t input = Pdf_instr.Runner.accepted (run t input)
