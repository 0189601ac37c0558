type kind = Block | Branch

type t = { id : int; name : string; kind : kind }

type registry = {
  reg_name : string;
  mutable next_id : int;
  mutable declared : t list; (* reverse declaration order *)
  names : (string, unit) Hashtbl.t;
}

let create_registry reg_name =
  { reg_name; next_id = 0; declared = []; names = Hashtbl.create 64 }

let declare registry name kind =
  if Hashtbl.mem registry.names name then
    invalid_arg (Printf.sprintf "Site: duplicate site %S in registry %S" name registry.reg_name);
  Hashtbl.add registry.names name ();
  let site = { id = registry.next_id; name; kind } in
  registry.next_id <- registry.next_id + 1;
  registry.declared <- site :: registry.declared;
  site

let block registry name = declare registry name Block
let branch registry name = declare registry name Branch

let name t = t.name
let id t = t.id

(* Outcome ids are dense: site [i] owns outcomes [2i] and [2i+1]; a block
   only ever emits [2i]. *)
let outcome t taken =
  match t.kind with
  | Block -> 2 * t.id
  | Branch -> (2 * t.id) + if taken then 1 else 0

let site_count r = r.next_id

let total_outcomes r =
  List.fold_left
    (fun acc s -> acc + match s.kind with Block -> 1 | Branch -> 2)
    0 r.declared

let sites r = List.rev r.declared

let outcome_name r oid =
  let sid = oid / 2 in
  match List.find_opt (fun s -> s.id = sid) r.declared with
  | None -> Printf.sprintf "<unknown outcome %d>" oid
  | Some s ->
    (match s.kind with
     | Block -> s.name
     | Branch -> Printf.sprintf "%s:%s" s.name (if oid land 1 = 1 then "taken" else "fall"))
