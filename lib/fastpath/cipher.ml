type t =
  | Simple
  | Safer_simplified of Ilp_cipher.Safer_simplified.key
  | Safer of Ilp_cipher.Safer.key
  | Des of Ilp_cipher.Des.key

let name = function
  | Simple -> "simple"
  | Safer_simplified _ -> "SAFER-simplified"
  | Safer _ -> "SAFER-K64"
  | Des _ -> "DES"

(* The simple cipher vectorised in a 64-bit register: encrypt is
   [(b xor 0x55) + 0x3c mod 256] per byte.  The per-byte add uses the
   carry-isolation identity: with the addend's high bit clear, the low
   seven bits of each byte can be summed directly and the high bit fixed
   up with xor, so no carry crosses a byte boundary. *)

let x55 = 0x5555_5555_5555_5555L
let c3c = 0x3C3C_3C3C_3C3C_3C3CL
let h80 = 0x8080_8080_8080_8080L
let l7f = 0x7F7F_7F7F_7F7F_7F7FL

let simple_encrypt b ~off ~count =
  for k = 0 to count - 1 do
    let i = off + (k lsl 3) in
    let x = Int64.logxor (Words.get64 b i) x55 in
    let s =
      Int64.logxor (Int64.add (Int64.logand x l7f) c3c) (Int64.logand x h80)
    in
    Words.set64 b i s
  done

(* Decrypt is [(b - 0x3c) mod 256, then xor 0x55]: per-byte subtract via
   borrow isolation (set each byte's high bit so the low-bits subtraction
   cannot borrow across, then repair the high bit: it flips exactly when
   the original high bit was clear). *)
let simple_decrypt b ~off ~count =
  for k = 0 to count - 1 do
    let i = off + (k lsl 3) in
    let x = Words.get64 b i in
    let d =
      Int64.logxor
        (Int64.sub (Int64.logor x h80) c3c)
        (Int64.logand (Int64.lognot x) h80)
    in
    Words.set64 b i (Int64.logxor d x55)
  done

let check name b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds")

let encrypt_blocks t b ~off ~count =
  check "Ilp_fastpath.Cipher.encrypt_blocks" b ~off ~count;
  match t with
  | Simple -> simple_encrypt b ~off ~count
  | Safer_simplified key -> Ilp_cipher.Safer_simplified.encrypt_blocks key b ~off ~count
  | Safer key -> Ilp_cipher.Safer.encrypt_blocks key b ~off ~count
  | Des key -> Ilp_cipher.Des.encrypt_blocks key b ~off ~count

let decrypt_blocks t b ~off ~count =
  check "Ilp_fastpath.Cipher.decrypt_blocks" b ~off ~count;
  match t with
  | Simple -> simple_decrypt b ~off ~count
  | Safer_simplified key -> Ilp_cipher.Safer_simplified.decrypt_blocks key b ~off ~count
  | Safer key -> Ilp_cipher.Safer.decrypt_blocks key b ~off ~count
  | Des key -> Ilp_cipher.Des.decrypt_blocks key b ~off ~count
