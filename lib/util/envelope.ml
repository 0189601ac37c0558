type spec = { magic : string; version : int; noun : string }

let encode spec v =
  let payload = Marshal.to_string v [] in
  let mlen = String.length spec.magic and plen = String.length payload in
  let b = Bytes.create (mlen + 17 + plen) in
  Bytes.blit_string spec.magic 0 b 0 mlen;
  Bytes.set b mlen (Char.chr spec.version);
  Bytes.blit_string (Digest.string payload) 0 b (mlen + 1) 16;
  Bytes.blit_string payload 0 b (mlen + 17) plen;
  Bytes.unsafe_to_string b

(* Does [s] hold [sub] at [pos]? A [while] loop over a ref: a local
   [let rec] would allocate a closure per call, and the coordinator
   decodes every frame a fleet sends. *)
let holds_at s pos sub =
  let i = ref 0 in
  while
    !i < String.length sub && String.unsafe_get s (pos + !i) = String.unsafe_get sub !i
  do
    incr i
  done;
  !i = String.length sub

let error spec what = Error (spec.noun ^ " " ^ what)

let decode spec s ~pos ~len =
  let mlen = String.length spec.magic in
  let body = pos + mlen + 17 and blen = len - mlen - 17 in
  if blen < 0 then error spec "too short to be valid"
  else if not (holds_at s pos spec.magic) then
    Error (Printf.sprintf "not a pfuzzer %s (bad magic)" spec.noun)
  else if not (holds_at s (pos + mlen + 1) (Digest.substring s body blen)) then
    error spec "corrupted (payload digest mismatch)"
  else
    let v = Char.code s.[pos + mlen] in
    if v <> spec.version then
      error spec
        (Printf.sprintf "version mismatch (found v%d, this build reads v%d)" v spec.version)
    else
      let unreadable = "payload unreadable (truncated or incompatible)" in
      (* [Marshal.from_string] bounds its read by the end of [s], not by
         the envelope's: the image must declare exactly the range's size. *)
      match Marshal.total_size (Bytes.unsafe_of_string s) body with
      | n when n <> blen || blen < Marshal.header_size -> error spec unreadable
      | exception _ -> error spec unreadable
      | _ -> (
        match Marshal.from_string s body with
        | v -> Ok v
        | exception _ -> error spec unreadable)
