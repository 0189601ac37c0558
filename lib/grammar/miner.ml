module Frame = Pdf_instr.Frame
module Site = Pdf_instr.Site
module Runner = Pdf_instr.Runner
module Subject = Pdf_subjects.Subject

type node = {
  name : string;
  start_pos : int;
  mutable end_pos : int;
  mutable children : node list; (* reverse order while building *)
}

(* Rebuild the derivation tree from the frame event stream. Frames nest
   properly because [Ctx.frame] is scoped. *)
let tree_of_frames events input_len =
  let root = { name = "<root>"; start_pos = 0; end_pos = input_len; children = [] } in
  let stack = ref [ root ] in
  Array.iter
    (fun event ->
      match (event, !stack) with
      | Frame.Enter { site; pos }, parent :: _ ->
        let node = { name = Site.name site; start_pos = pos; end_pos = pos; children = [] } in
        parent.children <- node :: parent.children;
        stack := node :: !stack
      | Frame.Exit { pos }, node :: rest ->
        node.end_pos <- pos;
        node.children <- List.rev node.children;
        stack := rest
      | (Frame.Enter _ | Frame.Exit _), [] -> assert false)
    events;
  root.children <- List.rev root.children;
  root

(* Convert one node into a production: the input slices between child
   spans become terminals, the children become nonterminals. *)
let rec add_node grammar input node =
  let symbols = ref [] in
  let cursor = ref node.start_pos in
  let emit_terminal upto =
    if upto > !cursor then begin
      symbols := Grammar.Terminal (String.sub input !cursor (upto - !cursor)) :: !symbols;
      cursor := upto
    end
  in
  let grammar =
    List.fold_left
      (fun grammar child ->
        emit_terminal child.start_pos;
        symbols := Grammar.Nonterminal child.name :: !symbols;
        cursor := child.end_pos;
        add_node grammar input child)
      grammar node.children
  in
  emit_terminal node.end_pos;
  Grammar.add_production grammar node.name (List.rev !symbols)

let mine (subject : Subject.t) inputs =
  let root_name = ref None in
  let grammar = ref (Grammar.empty ~start:"") in
  List.iter
    (fun input ->
      let run = Subject.run ~track_frames:true subject input in
      if Runner.accepted run then begin
        let root = tree_of_frames run.frames (String.length input) in
        match root.children with
        | [ top ] ->
          if !root_name = None then begin
            root_name := Some top.name;
            grammar := Grammar.empty ~start:top.name
          end;
          grammar := add_node !grammar input top
        | [] | _ :: _ :: _ -> ()
      end)
    inputs;
  !grammar
