type t =
  | Simple
  | Safer_simplified of Ilp_cipher.Safer_simplified.key
  | Safer of Ilp_cipher.Safer.key
  | Des of Ilp_cipher.Des.key

module Internet = Ilp_checksum.Internet
module Simple_cipher = Ilp_cipher.Simple_cipher
module Safer_simplified = Ilp_cipher.Safer_simplified

let name = function
  | Simple -> "simple"
  | Safer_simplified _ -> "SAFER-simplified"
  | Safer _ -> "SAFER-K64"
  | Des _ -> "DES"

let check name b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds")

let encrypt_blocks t b ~off ~count =
  check "Ilp_fastpath.Cipher.encrypt_blocks" b ~off ~count;
  match t with
  | Simple -> Simple_cipher.encrypt_blocks b ~off ~count
  | Safer_simplified key -> Safer_simplified.encrypt_blocks key b ~off ~count
  | Safer key -> Ilp_cipher.Safer.encrypt_blocks key b ~off ~count
  | Des key -> Ilp_cipher.Des.encrypt_blocks key b ~off ~count

let decrypt_blocks t b ~off ~count =
  check "Ilp_fastpath.Cipher.decrypt_blocks" b ~off ~count;
  match t with
  | Simple -> Simple_cipher.decrypt_blocks b ~off ~count
  | Safer_simplified key -> Safer_simplified.decrypt_blocks key b ~off ~count
  | Safer key -> Ilp_cipher.Safer.decrypt_blocks key b ~off ~count
  | Des key -> Ilp_cipher.Des.decrypt_blocks key b ~off ~count

(* SAFER-K64 and DES keep their block kernels: each block is transformed
   by the cipher's block function, applied to the key and the block in
   full (no closure per call), and folded while it is in L1, the lane
   sum kept as the word loops keep it. *)

let blocks_encrypt_fold block key b ~off ~count acc =
  let lanes = ref 0 in
  for i = 0 to count - 1 do
    let o = off + (i lsl 3) in
    block key b o;
    let w = Words.get64 b o in
    lanes :=
      !lanes + Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
      + Int64.to_int (Int64.shift_right_logical w 32);
    if i land 0xffff = 0xffff then lanes := (!lanes land 0xffff_ffff) + (!lanes lsr 32)
  done;
  Internet.add_lanes acc !lanes

let blocks_decrypt_fold block key ~src ~src_off ~dst ~dst_off ~count acc =
  let lanes = ref 0 in
  for i = 0 to count - 1 do
    let d = dst_off + (i lsl 3) in
    let w = Words.get64 src (src_off + (i lsl 3)) in
    lanes :=
      !lanes + Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
      + Int64.to_int (Int64.shift_right_logical w 32);
    if i land 0xffff = 0xffff then lanes := (!lanes land 0xffff_ffff) + (!lanes lsr 32);
    Words.set64 dst d w;
    block key dst d
  done;
  Internet.add_lanes acc !lanes

let encrypt_fold t b ~off ~count acc =
  check "Ilp_fastpath.Cipher.encrypt_fold" b ~off ~count;
  match t with
  | Simple -> Simple_cipher.encrypt_fold b ~off ~count acc
  | Safer_simplified key -> Safer_simplified.encrypt_fold key b ~off ~count acc
  | Safer key -> blocks_encrypt_fold Ilp_cipher.Safer.encrypt_block key b ~off ~count acc
  | Des key -> blocks_encrypt_fold Ilp_cipher.Des.encrypt_block key b ~off ~count acc

let decrypt_fold t ~src ~src_off ~dst ~dst_off ~count acc =
  check "Ilp_fastpath.Cipher.decrypt_fold" src ~off:src_off ~count;
  check "Ilp_fastpath.Cipher.decrypt_fold" dst ~off:dst_off ~count;
  match t with
  | Simple -> Simple_cipher.decrypt_fold ~src ~src_off ~dst ~dst_off ~count acc
  | Safer_simplified key ->
      Safer_simplified.decrypt_fold key ~src ~src_off ~dst ~dst_off ~count acc
  | Safer key ->
      blocks_decrypt_fold Ilp_cipher.Safer.decrypt_block key ~src ~src_off ~dst ~dst_off
        ~count acc
  | Des key ->
      blocks_decrypt_fold Ilp_cipher.Des.decrypt_block key ~src ~src_off ~dst ~dst_off
        ~count acc
