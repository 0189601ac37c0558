module Rng = Pdf_util.Rng

let interesting_bytes =
  [ '\000'; '\001'; '\016'; '\032'; '\064'; '\100'; '\127'; '\128'; '\255';
    ' '; '\n'; '0'; '9'; 'a'; 'z'; 'A'; 'Z' ]

(* One copy per variant: mutate a private [Bytes] copy of the input and
   freeze it. The buffer never escapes [f] mutable, so the unsafe freeze
   is sound — the old [Bytes.of_string]/[Bytes.to_string] round trip
   copied every variant twice. *)
let with_copy input f =
  let b = Bytes.of_string input in
  f b;
  Bytes.unsafe_to_string b

let flip_bits input width =
  let n = String.length input * 8 in
  let variants = ref [] in
  for bit = 0 to n - width do
    let v =
      with_copy input (fun b ->
          for k = bit to bit + width - 1 do
            let byte = k / 8 and off = k mod 8 in
            Bytes.set b byte
              (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl off)))
          done)
    in
    variants := v :: !variants
  done;
  List.rev !variants

let flip_bytes input =
  List.init (String.length input) (fun i ->
      with_copy input (fun b ->
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF))))

let arith input =
  let variants = ref [] in
  String.iteri
    (fun i c ->
      let base = Char.code c in
      List.iter
        (fun delta ->
          let v =
            with_copy input (fun b ->
                Bytes.set b i (Char.chr ((base + delta) land 0xFF)))
          in
          variants := v :: !variants)
        [ 1; -1; 2; -2; 4; -4; 8; -8; 16; -16 ])
    input;
  List.rev !variants

let interesting input =
  let variants = ref [] in
  String.iteri
    (fun i current ->
      List.iter
        (fun c ->
          (* Skip no-op substitutions, as AFL's could_be_interest does. *)
          if c <> current then
            variants := with_copy input (fun b -> Bytes.set b i c) :: !variants)
        interesting_bytes)
    input;
  List.rev !variants

let deterministic input =
  if input = "" then []
  else
    flip_bits input 1 @ flip_bits input 2 @ flip_bits input 4 @ flip_bytes input
    @ arith input @ interesting input

let havoc_op rng input =
  let len = String.length input in
  match Rng.int rng 7 with
  | 0 when len > 0 ->
    (* flip one bit *)
    with_copy input (fun b ->
        let i = Rng.int rng len in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8))))
  | 1 when len > 0 ->
    (* random byte *)
    with_copy input (fun b -> Bytes.set b (Rng.int rng len) (Rng.char rng))
  | 2 when len > 0 ->
    (* arithmetic *)
    with_copy input (fun b ->
        let i = Rng.int rng len in
        let delta = Rng.int rng 35 + 1 in
        let delta = if Rng.bool rng then delta else -delta in
        Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + delta) land 0xFF)))
  | 3 when len > 0 ->
    (* interesting byte *)
    with_copy input (fun b ->
        Bytes.set b (Rng.int rng len)
          (Rng.choose rng (Array.of_list interesting_bytes)))
  | 4 when len > 0 ->
    (* delete a byte *)
    let i = Rng.int rng len in
    String.sub input 0 i ^ String.sub input (i + 1) (len - i - 1)
  | 5 ->
    (* insert a byte *)
    let i = if len = 0 then 0 else Rng.int rng (len + 1) in
    String.sub input 0 i ^ String.make 1 (Rng.char rng)
    ^ String.sub input i (len - i)
  | _ when len > 0 ->
    (* duplicate a block *)
    let src = Rng.int rng len in
    let block_len = 1 + Rng.int rng (Int.min 8 (len - src)) in
    let dst = Rng.int rng (len + 1) in
    String.sub input 0 dst
    ^ String.sub input src block_len
    ^ String.sub input dst (len - dst)
  | _ -> input ^ String.make 1 (Rng.char rng)

let havoc rng input =
  let rounds = 1 + Rng.int rng 8 in
  let rec go acc k = if k = 0 then acc else go (havoc_op rng acc) (k - 1) in
  let result = go input rounds in
  if String.length result > 256 then String.sub result 0 256 else result

let splice rng a b =
  if a = "" || b = "" then havoc rng (a ^ b)
  else
    let cut_a = Rng.int rng (String.length a) in
    let cut_b = Rng.int rng (String.length b) in
    let spliced = String.sub a 0 cut_a ^ String.sub b cut_b (String.length b - cut_b) in
    havoc rng spliced
