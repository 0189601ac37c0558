let default_jobs () = Domain.recommended_domain_count ()

(* [jobs] is honoured as requested (clamped only by the number of
   items): domains are OS threads, so asking for more than the
   recommended domain count is legal, and silently clamping to it would
   make an explicit [~jobs:4] untestable on small machines. Callers that
   want a machine-sized pool pass [default_jobs ()]. *)
let map ?(jobs = 1) f items =
  let n = List.length items in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f items
  else begin
    let input = Array.of_list items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Work-stealing by shared counter: each worker claims the next
       unclaimed index. Every [results] slot is written by exactly one
       domain; Domain.join publishes the writes to the main domain. *)
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            Some
              (match f input.(i) with
               | v -> Ok v
               | exception e -> Error (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    let others = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join others;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

(* Retries run sequentially on the calling domain: a worker that died
   mid-task may have left its domain-local state unusable, and failed
   tasks are expected to be rare, so the simple, observable order (all
   parallel work first, then retries in input order) wins over spawning
   replacement domains. *)
let map_retry ?(jobs = 1) ?(retries = 2) ?on_retry f items =
  let attempt x = match f x with v -> Ok v | exception e -> Error e in
  let first_pass = map ~jobs attempt items in
  let rec redo index x attempt_no last_err =
    if attempt_no > retries then Error last_err
    else begin
      (match on_retry with
       | Some cb -> cb ~index ~attempt:attempt_no last_err
       | None -> ());
      match f x with
      | v -> Ok v
      | exception e -> redo index x (attempt_no + 1) e
    end
  in
  List.mapi
    (fun i (x, r) ->
      match r with Ok v -> Ok v | Error e -> redo i x 1 e)
    (List.combine items first_pass)
