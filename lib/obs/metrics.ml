module Histogram = Pdf_util.Stats.Histogram

type t = (string, Histogram.t) Hashtbl.t

let create () : t = Hashtbl.create 32

let histogram t name =
  match Hashtbl.find_opt t name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t name h;
    h

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Histogram.t) list;
}
