(* Minimal JSON support for the trace format. Trace events are single
   flat objects (string/int/float/bool values, no nesting), which keeps
   both the writer and the reader trivial and dependency-free. *)

type v = S of string | I of int | F of float | B of bool

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        (* Fuzzed inputs are arbitrary byte strings, not UTF-8; escaping
           everything outside printable ASCII keeps every line valid
           JSON. The reader maps \u00XX back to the raw byte. *)
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | S s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | B b -> Buffer.add_string buf (if b then "true" else "false")

let add_key buf k =
  Buffer.add_char buf '"';
  escape buf k;
  Buffer.add_string buf "\":"

(* One flat object on one line, fields in the given order. *)
let write_flat buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_key buf k;
      add_value buf v)
    fields;
  Buffer.add_char buf '}'

(* The trace_event format's one level of nesting: [fields], then [key]
   holding the flat object [inner]. *)
let nested_to_string fields key inner =
  let buf = Buffer.create 128 in
  write_flat buf fields;
  Buffer.truncate buf (Buffer.length buf - 1);
  if fields <> [] then Buffer.add_char buf ',';
  add_key buf key;
  write_flat buf inner;
  Buffer.add_char buf '}';
  Buffer.contents buf

let flat_to_string fields =
  let buf = Buffer.create 128 in
  write_flat buf fields;
  Buffer.contents buf

exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* Parser for exactly what [write_flat] produces: a single flat object.
   Raises [Malformed] on anything else. *)
let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos >= n || line.[!pos] <> c then fail "expected %C at %d" c !pos;
    incr pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          if !pos + 1 >= n then fail "dangling escape";
          (match line.[!pos + 1] with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | '/' -> Buffer.add_char buf '/'
           | 'u' ->
             if !pos + 5 >= n then fail "short \\u escape";
             let code = ref 0 in
             for i = !pos + 2 to !pos + 5 do
               let digit =
                 match line.[i] with
                 | '0' .. '9' as c -> Char.code c - Char.code '0'
                 | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                 | c -> fail "bad hex digit %C in \\u escape at %d" c i
               in
               code := (!code * 16) + digit
             done;
             let code = !code in
             if code > 0xff then fail "non-latin \\u escape %04x" code
             else Buffer.add_char buf (Char.chr code);
             pos := !pos + 4
           | c -> fail "unknown escape \\%c" c);
          pos := !pos + 2;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char line.[!pos] do
      incr pos
    done;
    let s = String.sub line start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> I i
    | None ->
      (match float_of_string_opt s with
       | Some f -> F f
       | None -> fail "bad number %S at %d" s start)
  in
  let parse_value () =
    skip_ws ();
    if !pos >= n then fail "missing value"
    else
      match line.[!pos] with
      | '"' -> S (parse_string ())
      | 't' when !pos + 4 <= n && String.sub line !pos 4 = "true" ->
        pos := !pos + 4;
        B true
      | 'f' when !pos + 5 <= n && String.sub line !pos 5 = "false" ->
        pos := !pos + 5;
        B false
      | _ -> parse_number ()
  in
  expect '{';
  skip_ws ();
  let fields = ref [] in
  if !pos < n && line.[!pos] = '}' then incr pos
  else begin
    let rec members () =
      let k = parse_string () in
      expect ':';
      let v = parse_value () in
      fields := (k, v) :: !fields;
      skip_ws ();
      if !pos < n && line.[!pos] = ',' then begin
        incr pos;
        skip_ws ();
        members ()
      end
      else expect '}'
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing garbage at %d" !pos;
  List.rev !fields
