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

let batch name f b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds");
  for i = off to off + (count * 8) - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (f (Char.code (Bytes.unsafe_get b i))))
  done

let encrypt_blocks b ~off ~count = batch "Simple_cipher.encrypt_blocks" encrypt_byte b ~off ~count
let decrypt_blocks b ~off ~count = batch "Simple_cipher.decrypt_blocks" decrypt_byte b ~off ~count

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
