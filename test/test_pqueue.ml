(* Property tests for {!Pdf_util.Pqueue} against a sorted-list reference
   model.

   The queue's contract is total: pop order is (priority desc, insertion
   order asc), [update] keeps original insertion order for tie-breaking,
   [iter_ranked] visits the entries in pop order, and [drop_worst] keeps
   the n best under the same order. The model is a plain association
   list with explicit sequence numbers, so every observable — pop, top,
   length, snapshot, the ranked order — can be predicted exactly, not
   just up to ties. Priorities are drawn from a tiny set to make ties
   the common case rather than the rare one. *)

module Pqueue = Pdf_util.Pqueue

let qtest = QCheck_alcotest.to_alcotest

type op =
  | Push of int  (** priority *)
  | Pop
  | Top
  | Rerank of int  (** [update] of every entry *)
  | Update of int
  | Iter_ranked
  | Drop_worst of int

let op_gen =
  QCheck.(
    oneof
      [
        map (fun p -> Push (abs p mod 4)) small_int;
        always Pop;
        always Top;
        map (fun k -> Rerank (abs k mod 5)) small_int;
        map (fun k -> Update (abs k mod 5)) small_int;
        always Iter_ranked;
        map (fun n -> Drop_worst (abs n mod 6)) small_int;
      ])

let ops_gen =
  QCheck.(
    make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | Push p -> Printf.sprintf "push %d" p
               | Pop -> "pop"
               | Top -> "top"
               | Rerank k -> Printf.sprintf "rerank %d" k
               | Update k -> Printf.sprintf "update %d" k
               | Iter_ranked -> "iter_ranked"
               | Drop_worst n -> Printf.sprintf "drop_worst %d" n)
             ops))
      Gen.(list_size (int_range 0 40) (QCheck.gen op_gen)))

(* Reference model: entries in insertion order with explicit seqs. *)
module Model = struct
  type entry = { mutable prio : float; seq : int; value : int }
  type t = { mutable entries : entry list; mutable next_seq : int }

  let create () = { entries = []; next_seq = 0 }

  let push t prio value =
    t.entries <- t.entries @ [ { prio; seq = t.next_seq; value } ];
    t.next_seq <- t.next_seq + 1

  let order a b =
    (* priority desc, then seq asc — Pqueue's [before] as a comparator *)
    if a.prio > b.prio then -1
    else if a.prio < b.prio then 1
    else compare a.seq b.seq

  let best t =
    match List.sort order t.entries with [] -> None | e :: _ -> Some e

  let pop t =
    match best t with
    | None -> None
    | Some e ->
      t.entries <- List.filter (fun e' -> e'.seq <> e.seq) t.entries;
      Some (e.prio, e.value)

  let top t = Option.map (fun e -> e.value) (best t)

  let ranked t = List.map (fun e -> e.value) (List.sort order t.entries)

  let update t f =
    List.iter (fun e -> match f e.value with None -> () | Some prio -> e.prio <- prio) t.entries

  let drop_worst t n =
    let kept = List.filteri (fun i _ -> i < n) (List.sort order t.entries) in
    t.entries <-
      List.sort (fun a b -> compare a.seq b.seq) kept

  let snapshot t =
    List.map
      (fun e -> (e.prio, e.value))
      (List.sort (fun a b -> compare a.seq b.seq) t.entries)

  let length t = List.length t.entries
end

let rerank_fn k v = float_of_int ((v * (k + 2)) mod 5)

(* [update]'s selector: every entry whose value is a multiple of [k + 2]
   moves to a re-ranked priority, often one it already had, so ties stay
   common. *)
let update_fn k v = if v mod (k + 2) = 0 then Some (rerank_fn k v) else None

(* [pop] with the priority [top_priority] read just before it. *)
let pop_with_priority q =
  if Pqueue.length q = 0 then None
  else
    let prio = Pqueue.top_priority q in
    Option.map (fun v -> (prio, v)) (Pqueue.pop q)

let check_snapshot model q =
  if Pqueue.length q <> Model.length model then
    QCheck.Test.fail_reportf "length %d, model %d" (Pqueue.length q)
      (Model.length model);
  if Pqueue.snapshot q <> Model.snapshot model then
    QCheck.Test.fail_report "snapshot mismatch"

let apply model q counter op =
  match op with
  | Push p ->
    let v = !counter in
    incr counter;
    let prio = float_of_int p in
    Pqueue.push q prio v;
    Model.push model prio v
  | Pop ->
    let got = pop_with_priority q and want = Model.pop model in
    if got <> want then QCheck.Test.fail_report "pop mismatch"
  | Top -> (
    match Model.top model with
    | Some v -> if Pqueue.top q <> v then QCheck.Test.fail_report "top mismatch"
    | None -> (
      match Pqueue.top q with
      | _ -> QCheck.Test.fail_report "top of an empty queue"
      | exception Invalid_argument _ -> ()))
  | Rerank k ->
    let f v = Some (rerank_fn k v) in
    Pqueue.update q f;
    Model.update model f
  | Update k ->
    Pqueue.update q (update_fn k);
    Model.update model (update_fn k)
  | Iter_ranked ->
    let seen = ref [] in
    Pqueue.iter_ranked (fun v -> seen := v :: !seen) q;
    if List.rev !seen <> Model.ranked model then
      QCheck.Test.fail_report "iter_ranked order differs from pop order"
  | Drop_worst n ->
    Pqueue.drop_worst q n;
    Model.drop_worst model n

let test_ops_model =
  QCheck.Test.make ~name:"op sequences agree with sorted-list model"
    ~count:1000 ops_gen (fun ops ->
      let model = Model.create () and q = Pqueue.create () in
      let counter = ref 0 in
      List.iter
        (fun op ->
          apply model q counter op;
          check_snapshot model q)
        ops;
      (* Drain: full pop order must match the model's. *)
      let rec drain () =
        let got = pop_with_priority q and want = Model.pop model in
        if got <> want then QCheck.Test.fail_report "drain order mismatch";
        if got <> None then drain ()
      in
      drain ();
      if Pqueue.length q <> 0 then QCheck.Test.fail_report "queue not empty after drain";
      true)

let test_fifo_on_ties =
  QCheck.Test.make ~name:"equal priorities pop in insertion order" ~count:200
    QCheck.(int_range 0 50)
    (fun n ->
      let q = Pqueue.create () in
      for v = 0 to n - 1 do
        Pqueue.push q 1.0 v
      done;
      let order = List.init n (fun _ -> Option.get (Pqueue.pop q)) in
      order = List.init n Fun.id)

let test_rerank_keeps_tie_order =
  QCheck.Test.make ~name:"rerank preserves insertion order on ties" ~count:200
    QCheck.(int_range 1 30)
    (fun n ->
      let q = Pqueue.create () in
      for v = 0 to n - 1 do
        (* Distinct priorities going in... *)
        Pqueue.push q (float_of_int v) v
      done;
      (* ...collapsed to one tie class by a full update: insertion order
         must decide the pop order. *)
      Pqueue.update q (fun _ -> Some 0.0);
      let order = List.init n (fun _ -> Option.get (Pqueue.pop q)) in
      order = List.init n Fun.id)

(* Values are stored untyped; a float payload must come back as the
   same float, in the model's order, after sifts, [update] and
   truncation have moved it. *)
let test_float_values =
  QCheck.Test.make ~name:"float values survive sifts, update and truncation"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 40) (pair (int_range 0 3) float))
    (fun pairs ->
      let q = Pqueue.create () in
      List.iter (fun (p, v) -> Pqueue.push q (float_of_int p) v) pairs;
      let reprio p v = if v > 0.0 then 4.0 else float_of_int p in
      Pqueue.update q (fun v -> if v > 0.0 then Some 4.0 else None);
      let n = List.length pairs / 2 in
      Pqueue.drop_worst q n;
      let want =
        List.mapi (fun seq (p, v) -> (reprio p v, seq, v)) pairs
        |> List.sort (fun (pa, sa, _) (pb, sb, _) ->
               if pa <> pb then compare pb pa else compare sa sb)
        |> List.filteri (fun i _ -> i < n)
        |> List.map (fun (_, _, v) -> v)
      in
      let drained =
        List.init (Pqueue.length q) (fun _ -> Option.get (Pqueue.pop q))
      in
      (* [compare], not [=]: the generator draws nan too. *)
      compare drained want = 0)

let () =
  Alcotest.run "pqueue"
    [
      ( "model",
        [
          qtest test_ops_model;
          qtest test_fifo_on_ties;
          qtest test_rerank_keeps_tie_order;
          qtest test_float_values;
        ] );
    ]
