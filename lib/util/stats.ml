let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let minimum = function
  | [] -> 0.0
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> 0.0
  | x :: xs -> List.fold_left max x xs

let percentile p = function
  | [] -> 0.0
  | xs ->
    let sorted = List.sort compare xs in
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    List.nth sorted (rank - 1)

let ratio num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

module Histogram = struct
  (* HDR-style log-linear buckets: values below [sub_count] get exact
     unit buckets; above, each power of two is split into [sub_count/2]
     linear sub-buckets, so the relative quantization error is bounded by
     2 / sub_count (~3.1%) everywhere. Bucket index and lower bound are
     pure integer arithmetic, no floats. *)
  let sub_bits = 6
  let sub_count = 1 lsl sub_bits (* 64 *)
  let half = sub_count / 2

  (* Highest bucket: values up to max_int, whose msb is 61 on 64-bit
     (OCaml ints are 63-bit). Keeping the bucket count tight means every
     bucket's lower bound — including the one-past-the-end boundary —
     stays representable without overflow. *)
  let num_buckets = sub_count + ((61 - sub_bits + 1) * half)

  let msb v =
    let v = ref v and r = ref 0 in
    if !v lsr 32 <> 0 then (v := !v lsr 32; r := !r + 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
    if !v lsr 1 <> 0 then incr r;
    !r

  let bucket_index v =
    let v = if v < 0 then 0 else v in
    if v < sub_count then v
    else begin
      let bucket = msb v - sub_bits + 1 in
      let sub = v lsr bucket in
      sub_count + ((bucket - 1) * half) + (sub - half)
    end

  let bucket_lower i =
    if i < sub_count then i
    else begin
      let bucket = ((i - sub_count) / half) + 1 in
      let sub = half + ((i - sub_count) mod half) in
      sub lsl bucket
    end

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;  (* max_int when empty *)
    mutable max_v : int;  (* -1 when empty *)
  }

  let create () =
    { counts = Array.make num_buckets 0; count = 0; sum = 0; min_v = max_int; max_v = -1 }

  let record t v =
    let v = if v < 0 then 0 else v in
    let i = bucket_index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let sum t = t.sum
  let min_value t = if t.count = 0 then 0 else t.min_v
  let max_value t = if t.count = 0 then 0 else t.max_v
  let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  let merge a b =
    let t = create () in
    for i = 0 to num_buckets - 1 do
      t.counts.(i) <- a.counts.(i) + b.counts.(i)
    done;
    t.count <- a.count + b.count;
    t.sum <- a.sum + b.sum;
    t.min_v <- min a.min_v b.min_v;
    t.max_v <- max a.max_v b.max_v;
    t

  let equal a b =
    a.count = b.count && a.sum = b.sum && a.min_v = b.min_v && a.max_v = b.max_v
    && a.counts = b.counts

  (* Nearest-rank percentile over bucket lower bounds, exact for values
     below [sub_count] (unit buckets). The extreme ranks return the exact
     tracked min/max so p=0/p=100 never suffer quantization. *)
  let percentile t p =
    if t.count = 0 then 0
    else begin
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      let rank = max 1 (min t.count rank) in
      if rank = 1 && p <= 0.0 then min_value t
      else if rank = t.count then max_value t
      else begin
        let seen = ref 0 and i = ref 0 and res = ref (min_value t) in
        (try
           while !i < num_buckets do
             let c = t.counts.(!i) in
             if c > 0 then begin
               seen := !seen + c;
               if !seen >= rank then begin
                 res := bucket_lower !i;
                 raise Exit
               end
             end;
             incr i
           done
         with Exit -> ());
        max !res (min_value t)
      end
    end

end
