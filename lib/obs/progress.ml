(* AFL-style live status line. The observer decides *when* (its snapshot
   cadence); this module decides *what it looks like* and how to paint
   it: carriage-return overwrite on a tty, plain lines otherwise. *)

type t = {
  out : out_channel;
  interval_ns : int;
  tty : bool;
  mutable painted : bool;  (* a live line is currently on screen *)
}

let create ?(out = stderr) ?(interval_s = 1.0) () =
  {
    out;
    interval_ns = int_of_float (interval_s *. 1e9);
    tty = (try Unix.isatty (Unix.descr_of_out_channel out) with Unix.Unix_error _ -> false);
    painted = false;
  }

let interval_ns t = t.interval_ns

let render ~execs ~max_executions ~execs_per_sec ~depth ~valid ~cov
    ~outcomes ~hits ~misses ~plateau ~hangs ~crashes =
  let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den in
  let cache =
    if hits + misses = 0 then "-" else Printf.sprintf "%.1f%%" (pct hits (hits + misses))
  in
  Printf.sprintf
    "[pfuzzer] %d/%d execs | %.0f/s | queue %d | valid %d | cov %.1f%% | cache %s | plateau %d | hang %d | crash %d"
    execs max_executions execs_per_sec depth valid (pct cov outcomes) cache plateau hangs crashes

let print t line =
  if t.tty then begin
    output_string t.out "\r\027[K";
    output_string t.out line;
    t.painted <- true
  end
  else begin
    output_string t.out line;
    output_char t.out '\n'
  end;
  flush t.out

let finish t =
  if t.painted then begin
    output_char t.out '\n';
    flush t.out;
    t.painted <- false
  end
