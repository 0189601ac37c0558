type t = { ch : char; taint : Taint.t }

let untainted ch = { ch; taint = Taint.empty }
let input i ch = { ch; taint = Taint.singleton i }
let code t = Char.code t.ch
let map f t = { t with ch = f t.ch }

let combine f a b = { ch = f a.ch b.ch; taint = Taint.union a.taint b.taint }

let is_tainted t = not (Taint.is_empty t.taint)
