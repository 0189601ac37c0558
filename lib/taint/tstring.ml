type t = Tchar.t array

let empty = [||]
let of_string s = Array.init (String.length s) (fun i -> Tchar.untainted s.[i])
let of_chars cs = Array.of_list cs
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
