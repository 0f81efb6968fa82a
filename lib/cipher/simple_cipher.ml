let xor_const = 0x55
let add_const = 0x3c

let encrypt_byte b = ((b lxor xor_const) + add_const) land 0xff
let decrypt_byte b = ((b - add_const) land 0xff) lxor xor_const

let block ~f b off =
  for i = off to off + 7 do
    Bytes.set b i (Char.chr (f (Char.code (Bytes.get b i))))
  done

let encrypt_block b off = block ~f:encrypt_byte b off
let decrypt_block b off = block ~f:decrypt_byte b off

(* The word step: the cipher in one 64-bit register
   (SIMD-within-a-register), each constant repeated in every byte.  The
   per-byte add uses the carry-isolation identity: with the addend's
   high bit clear, the low seven bits of each byte can be summed
   directly and the high bit fixed up with xor, so no carry crosses a
   byte boundary.  Decrypt subtracts by borrow isolation: set each
   byte's high bit so the low-bits subtraction cannot borrow across,
   then repair the high bit, which flips exactly when the original high
   bit was clear.  The constants are literals so that they stay
   immediates in the loops. *)

let x55 = 0x5555_5555_5555_5555L (* xor_const *)
let c3c = 0x3C3C_3C3C_3C3C_3C3CL (* add_const *)
let h80 = 0x8080_8080_8080_8080L
let l7f = 0x7F7F_7F7F_7F7F_7F7FL

let[@inline] encrypt_word w =
  let x = Int64.logxor w x55 in
  Int64.logxor (Int64.add (Int64.logand x l7f) c3c) (Int64.logand x h80)

let[@inline] decrypt_word w =
  Int64.logxor
    (Int64.logxor (Int64.sub (Int64.logor w h80) c3c) (Int64.logand (Int64.lognot w) h80))
    x55

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

module Internet = Ilp_checksum.Internet

(* Each kernel raises its own literal: a call ahead of a loop (to
   [invalid_arg], or to build the message) spills the loop's cursors to
   the stack for the whole loop. *)
let[@inline] outside b ~off ~count =
  off < 0 || count < 0 || off + (count * 8) > Bytes.length b

let encrypt_blocks b ~off ~count =
  if outside b ~off ~count then
    raise (Invalid_argument "Simple_cipher.encrypt_blocks: block run out of bounds");
  for i = 0 to count - 1 do
    let o = off + (i lsl 3) in
    set64 b o (encrypt_word (get64 b o))
  done

let decrypt_blocks b ~off ~count =
  if outside b ~off ~count then
    raise (Invalid_argument "Simple_cipher.decrypt_blocks: block run out of bounds");
  for i = 0 to count - 1 do
    let o = off + (i lsl 3) in
    set64 b o (decrypt_word (get64 b o))
  done

(* The fused loops: each word is loaded once, its lanes added to the
   checksum and its cipher step run in registers, and stored once; the
   lane sum carries every 2^16 words and goes into the accumulator at
   the end. *)

let encrypt_fold b ~off ~count acc =
  if outside b ~off ~count then
    raise (Invalid_argument "Simple_cipher.encrypt_fold: block run out of bounds");
  let lanes = ref 0 in
  for i = 0 to count - 1 do
    let o = off + (i lsl 3) in
    let w = encrypt_word (get64 b o) in
    set64 b o w;
    lanes :=
      !lanes + Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
      + Int64.to_int (Int64.shift_right_logical w 32);
    if i land 0xffff = 0xffff then lanes := (!lanes land 0xffff_ffff) + (!lanes lsr 32)
  done;
  Internet.add_lanes acc !lanes

let decrypt_fold ~src ~src_off ~dst ~dst_off ~count acc =
  if outside src ~off:src_off ~count then
    raise (Invalid_argument "Simple_cipher.decrypt_fold: block run out of bounds");
  if outside dst ~off:dst_off ~count then
    raise (Invalid_argument "Simple_cipher.decrypt_fold: block run out of bounds");
  let lanes = ref 0 in
  for i = 0 to count - 1 do
    let w = get64 src (src_off + (i lsl 3)) in
    lanes :=
      !lanes + Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
      + Int64.to_int (Int64.shift_right_logical w 32);
    if i land 0xffff = 0xffff then lanes := (!lanes land 0xffff_ffff) + (!lanes lsr 32);
    set64 dst (dst_off + (i lsl 3)) (decrypt_word w)
  done;
  Internet.add_lanes acc !lanes

let map_string f s =
  let n = String.length s in
  if n mod 8 <> 0 then invalid_arg "Simple_cipher: input not a multiple of 8 bytes";
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    f b !off;
    off := !off + 8
  done;
  Bytes.unsafe_to_string b

let encrypt_string s = map_string encrypt_block s
let decrypt_string s = map_string decrypt_block s

let charged (sim : Ilp_memsim.Sim.t) =
  let open Ilp_memsim in
  let ops n = Machine.compute sim.machine n in
  let code_encrypt = Code.alloc sim.code ~len:192 in
  let code_decrypt = Code.alloc sim.code ~len:192 in
  let charged_block f b off =
    block ~f b off;
    (* Two ALU ops per byte plus loop overhead. *)
    ops 20
  in
  { Block_cipher.name = "simple";
    block_len = 8;
    encrypt = charged_block encrypt_byte;
    decrypt = charged_block decrypt_byte;
    code_encrypt;
    code_decrypt;
    store_unit = 4 }
