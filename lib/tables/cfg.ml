type symbol = T of char | N of string

type production = { lhs : string; rhs : symbol list }

type t = { start : string; productions : production list; nts : string list }

let make ~start productions =
  let defined = List.sort_uniq compare (List.map (fun p -> p.lhs) productions) in
  let check_symbol = function
    | T _ -> ()
    | N name ->
      if not (List.mem name defined) then
        invalid_arg (Printf.sprintf "Cfg.make: nonterminal %S has no production" name)
  in
  List.iter (fun p -> List.iter check_symbol p.rhs) productions;
  if not (List.mem start defined) then
    invalid_arg (Printf.sprintf "Cfg.make: start symbol %S has no production" start);
  let nts =
    List.fold_left
      (fun acc p -> if List.mem p.lhs acc then acc else p.lhs :: acc)
      [] productions
    |> List.rev
  in
  { start; productions; nts }

let start t = t.start
let productions t = t.productions
let productions_of t name = List.filter (fun p -> p.lhs = name) t.productions
let nonterminals t = t.nts

let production_index t production =
  let rec find i = function
    | [] -> invalid_arg "Cfg.production_index: unknown production"
    | p :: rest -> if p == production || p = production then i else find (i + 1) rest
  in
  find 0 t.productions
