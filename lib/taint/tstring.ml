type t = Tchar.t array

let empty = [||]
let of_string s = Array.init (String.length s) (fun i -> Tchar.untainted s.[i])

let input_char s i = Option.get (Tchar.interned i (String.unsafe_get s i))

(* A loop rather than [Array.init], so building a token takes no
   closure. *)
let of_input s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Tstring.of_input";
  if len = 0 then empty
  else begin
    let t = Array.make len (input_char s pos) in
    for k = 1 to len - 1 do
      Array.unsafe_set t k (input_char s (pos + k))
    done;
    t
  end
let length = Array.length
let get t i = t.(i)
let append_char t c = Array.append t [| c |]
let concat = Array.append
let sub = Array.sub
let to_string t = String.init (Array.length t) (fun i -> t.(i).Tchar.ch)

let taint t =
  Array.fold_left (fun acc (c : Tchar.t) -> Taint.union acc c.taint) Taint.empty t

let taint_of_char t i = t.(i).Tchar.taint
let chars t = Array.to_list t

let equal_payload a b =
  length a = length b
  && (let ok = ref true in
      Array.iteri (fun i (c : Tchar.t) -> if c.ch <> b.(i).Tchar.ch then ok := false) a;
      !ok)
