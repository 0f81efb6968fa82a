type key = { k : int array (* 8 bytes *) }

let expand_key user =
  if String.length user <> 8 then
    invalid_arg "Safer_simplified.expand_key: key must be 8 bytes";
  { k = Array.init 8 (fun j -> Char.code user.[j]) }

(* One SAFER round reduced to its essence; [kread]/[exp]/[log]/[ops] as in
   {!Safer}.  The mixed patterns follow the full cipher's byte positions. *)

(* The PHT butterflies live at top level: defined inside the core they
   would capture [s] and allocate a closure per block. *)
let pht s i j =
  let x = s.(i) and y = s.(j) in
  s.(i) <- ((2 * x) + y) land 0xff;
  s.(j) <- (x + y) land 0xff

let ipht s i j =
  let x = s.(i) and y = s.(j) in
  s.(i) <- (x - y) land 0xff;
  s.(j) <- ((2 * y) - x) land 0xff

let encrypt_core ~kread ~exp ~log ~ops s =
  s.(0) <- s.(0) lxor kread 0;
  s.(1) <- (s.(1) + kread 1) land 0xff;
  s.(2) <- (s.(2) + kread 2) land 0xff;
  s.(3) <- s.(3) lxor kread 3;
  s.(4) <- s.(4) lxor kread 4;
  s.(5) <- (s.(5) + kread 5) land 0xff;
  s.(6) <- (s.(6) + kread 6) land 0xff;
  s.(7) <- s.(7) lxor kread 7;
  ops 16;
  s.(0) <- exp s.(0);
  s.(1) <- log s.(1);
  s.(2) <- log s.(2);
  s.(3) <- exp s.(3);
  s.(4) <- exp s.(4);
  s.(5) <- log s.(5);
  s.(6) <- log s.(6);
  s.(7) <- exp s.(7);
  ops 8;
  pht s 0 1; pht s 2 3; pht s 4 5; pht s 6 7;
  ops 12

let decrypt_core ~kread ~exp ~log ~ops ~spill s =
  ipht s 0 1; ipht s 2 3; ipht s 4 5; ipht s 6 7;
  ops 12;
  (* Decryption holds more live values than encryption (the paper's stated
     reason for its higher receive-side miss count); the spill hook lets
     the charged instance write intermediates to memory. *)
  spill s;
  s.(0) <- log s.(0);
  s.(1) <- exp s.(1);
  s.(2) <- exp s.(2);
  s.(3) <- log s.(3);
  s.(4) <- log s.(4);
  s.(5) <- exp s.(5);
  s.(6) <- exp s.(6);
  s.(7) <- log s.(7);
  ops 8;
  let sub x k = (x - k) land 0xff in
  s.(0) <- s.(0) lxor kread 0;
  s.(1) <- sub s.(1) (kread 1);
  s.(2) <- sub s.(2) (kread 2);
  s.(3) <- s.(3) lxor kread 3;
  s.(4) <- s.(4) lxor kread 4;
  s.(5) <- sub s.(5) (kread 5);
  s.(6) <- sub s.(6) (kread 6);
  s.(7) <- s.(7) lxor kread 7;
  ops 16

(* Run a core on one block through a caller-supplied scratch array, so a
   batch (or a long-lived charged instance) loads the scratch once instead
   of allocating per block. *)
let run_block core s b off =
  for i = 0 to 7 do
    s.(i) <- Char.code (Bytes.get b (off + i))
  done;
  core s;
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr s.(i))
  done

let with_block f b off = run_block f (Array.make 8 0) b off

let pure_exp x = Safer.exp_table.(x)
let pure_log x = Safer.log_table.(x)
let no_ops (_ : int) = ()
let no_spill (_ : int array) = ()

(* The word step: a block is one 64-bit word, byte [i] of the block in
   bits [8i, 8i+7] (little-endian; a big-endian host swaps it on the way
   in and out, at no cost here).  It is [encrypt_core]/[decrypt_core]
   written over the word, with the key bytes passed in locals and each
   table read unchecked after its index is masked to a byte, so a loop
   that inlines it keeps the block in registers from its load to its
   store. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let[@inline] word_of_halves lo hi =
  let w = Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32) in
  if big_endian () then swap64 w else w

(* The PHT of one byte pair, as two bytes of a half. *)
let[@inline] pht2 x y = (((2 * x) + y) land 0xff) lor (((x + y) land 0xff) lsl 8)

let[@inline] encrypt_word ex lg k0 k1 k2 k3 k4 k5 k6 k7 w =
  let w = if big_endian () then swap64 w else w in
  let lo = Int64.to_int w and hi = Int64.to_int (Int64.shift_right_logical w 32) in
  let x0 = Array.unsafe_get ex ((lo land 0xff) lxor k0)
  and x1 = Array.unsafe_get lg (((lo lsr 8) + k1) land 0xff)
  and x2 = Array.unsafe_get lg (((lo lsr 16) + k2) land 0xff)
  and x3 = Array.unsafe_get ex (((lo lsr 24) land 0xff) lxor k3)
  and x4 = Array.unsafe_get ex ((hi land 0xff) lxor k4)
  and x5 = Array.unsafe_get lg (((hi lsr 8) + k5) land 0xff)
  and x6 = Array.unsafe_get lg (((hi lsr 16) + k6) land 0xff)
  and x7 = Array.unsafe_get ex ((hi lsr 24) lxor k7) in
  word_of_halves (pht2 x0 x1 lor (pht2 x2 x3 lsl 16)) (pht2 x4 x5 lor (pht2 x6 x7 lsl 16))

let[@inline] decrypt_word ex lg k0 k1 k2 k3 k4 k5 k6 k7 w =
  let w = if big_endian () then swap64 w else w in
  let lo = Int64.to_int w and hi = Int64.to_int (Int64.shift_right_logical w 32) in
  let y0 = lo land 0xff and y1 = (lo lsr 8) land 0xff in
  let y2 = (lo lsr 16) land 0xff and y3 = (lo lsr 24) land 0xff in
  let y4 = hi land 0xff and y5 = (hi lsr 8) land 0xff in
  let y6 = (hi lsr 16) land 0xff and y7 = hi lsr 24 in
  let p0 = Array.unsafe_get lg ((y0 - y1) land 0xff) lxor k0
  and p1 = (Array.unsafe_get ex (((2 * y1) - y0) land 0xff) - k1) land 0xff
  and p2 = (Array.unsafe_get ex ((y2 - y3) land 0xff) - k2) land 0xff
  and p3 = Array.unsafe_get lg (((2 * y3) - y2) land 0xff) lxor k3
  and p4 = Array.unsafe_get lg ((y4 - y5) land 0xff) lxor k4
  and p5 = (Array.unsafe_get ex (((2 * y5) - y4) land 0xff) - k5) land 0xff
  and p6 = (Array.unsafe_get ex ((y6 - y7) land 0xff) - k6) land 0xff
  and p7 = Array.unsafe_get lg (((2 * y7) - y6) land 0xff) lxor k7 in
  word_of_halves
    (p0 lor (p1 lsl 8) lor (p2 lsl 16) lor (p3 lsl 24))
    (p4 lor (p5 lsl 8) lor (p6 lsl 16) lor (p7 lsl 24))

module Internet = Ilp_checksum.Internet

(* Each kernel raises its own literal: a call ahead of a loop (to
   [invalid_arg], or to build the message) spills the loop's cursors to
   the stack for the whole loop. *)
let[@inline] outside b ~off ~count =
  off < 0 || count < 0 || off + (count * 8) > Bytes.length b

(* Each loop takes the key bytes into locals once; none allocates. *)

let encrypt_blocks key b ~off ~count =
  if outside b ~off ~count then
    raise (Invalid_argument "Safer_simplified.encrypt_blocks: block run out of bounds");
  let k = key.k and ex = Safer.exp_table and lg = Safer.log_table in
  let k0 = k.(0) and k1 = k.(1) and k2 = k.(2) and k3 = k.(3) in
  let k4 = k.(4) and k5 = k.(5) and k6 = k.(6) and k7 = k.(7) in
  for i = 0 to count - 1 do
    let o = off + (i lsl 3) in
    set64 b o (encrypt_word ex lg k0 k1 k2 k3 k4 k5 k6 k7 (get64 b o))
  done

let decrypt_blocks key b ~off ~count =
  if outside b ~off ~count then
    raise (Invalid_argument "Safer_simplified.decrypt_blocks: block run out of bounds");
  let k = key.k and ex = Safer.exp_table and lg = Safer.log_table in
  let k0 = k.(0) and k1 = k.(1) and k2 = k.(2) and k3 = k.(3) in
  let k4 = k.(4) and k5 = k.(5) and k6 = k.(6) and k7 = k.(7) in
  for i = 0 to count - 1 do
    let o = off + (i lsl 3) in
    set64 b o (decrypt_word ex lg k0 k1 k2 k3 k4 k5 k6 k7 (get64 b o))
  done

(* The fused loops: each block is loaded once, its lanes added to the
   checksum and its step run in registers, and stored once; the lane sum
   carries every 2^16 words and goes into the accumulator at the end. *)

let encrypt_fold key b ~off ~count acc =
  if outside b ~off ~count then
    raise (Invalid_argument "Safer_simplified.encrypt_fold: block run out of bounds");
  let k = key.k and ex = Safer.exp_table and lg = Safer.log_table in
  let k0 = k.(0) and k1 = k.(1) and k2 = k.(2) and k3 = k.(3) in
  let k4 = k.(4) and k5 = k.(5) and k6 = k.(6) and k7 = k.(7) in
  let lanes = ref 0 in
  for i = 0 to count - 1 do
    let o = off + (i lsl 3) in
    let w = encrypt_word ex lg k0 k1 k2 k3 k4 k5 k6 k7 (get64 b o) in
    set64 b o w;
    lanes :=
      !lanes + Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
      + Int64.to_int (Int64.shift_right_logical w 32);
    if i land 0xffff = 0xffff then lanes := (!lanes land 0xffff_ffff) + (!lanes lsr 32)
  done;
  Internet.add_lanes acc !lanes

let decrypt_fold key ~src ~src_off ~dst ~dst_off ~count acc =
  if outside src ~off:src_off ~count then
    raise (Invalid_argument "Safer_simplified.decrypt_fold: block run out of bounds");
  if outside dst ~off:dst_off ~count then
    raise (Invalid_argument "Safer_simplified.decrypt_fold: block run out of bounds");
  let k = key.k and ex = Safer.exp_table and lg = Safer.log_table in
  let k0 = k.(0) and k1 = k.(1) and k2 = k.(2) and k3 = k.(3) in
  let k4 = k.(4) and k5 = k.(5) and k6 = k.(6) and k7 = k.(7) in
  let lanes = ref 0 in
  for i = 0 to count - 1 do
    let w = get64 src (src_off + (i lsl 3)) in
    lanes :=
      !lanes + Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
      + Int64.to_int (Int64.shift_right_logical w 32);
    if i land 0xffff = 0xffff then lanes := (!lanes land 0xffff_ffff) + (!lanes lsr 32);
    set64 dst (dst_off + (i lsl 3)) (decrypt_word ex lg k0 k1 k2 k3 k4 k5 k6 k7 w)
  done;
  Internet.add_lanes acc !lanes

let encrypt_block key b off =
  with_block (encrypt_core ~kread:(Array.get key.k) ~exp:pure_exp ~log:pure_log ~ops:no_ops) b off

let decrypt_block key b off =
  with_block
    (decrypt_core ~kread:(Array.get key.k) ~exp:pure_exp ~log:pure_log ~ops:no_ops
       ~spill:no_spill)
    b off

let map_string f key s =
  let n = String.length s in
  if n mod 8 <> 0 then invalid_arg "Safer_simplified: input not a multiple of 8 bytes";
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    f key b !off;
    off := !off + 8
  done;
  Bytes.unsafe_to_string b

let encrypt_string key s = map_string encrypt_block key s
let decrypt_string key s = map_string decrypt_block key s

(* Intermediate bytes the decryption kernel spills per block. *)
let spill_bytes = 4

let charged (sim : Ilp_memsim.Sim.t) ~key () =
  let open Ilp_memsim in
  let k = expand_key key in
  let exp_base = Alloc.alloc sim.alloc ~align:64 256 in
  let log_base = Alloc.alloc sim.alloc ~align:64 256 in
  let key_base = Alloc.alloc sim.alloc ~align:8 8 in
  let scratch = Alloc.alloc sim.alloc ~align:8 spill_bytes in
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (exp_base + i) v) Safer.exp_table;
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (log_base + i) v) Safer.log_table;
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (key_base + i) v) k.k;
  let kread i = Mem.get_u8 sim.mem (key_base + i) in
  let exp x = Mem.get_u8 sim.mem (exp_base + x) in
  let log x = Mem.get_u8 sim.mem (log_base + x) in
  let ops n = Machine.compute sim.machine n in
  let spill s =
    for i = 0 to spill_bytes - 1 do
      Mem.set_u8 sim.mem (scratch + i) s.(i);
      s.(i) <- Mem.get_u8 sim.mem (scratch + i)
    done
  in
  let code_encrypt = Code.alloc sim.code ~len:1280 in
  let code_decrypt = Code.alloc sim.code ~len:1600 in
  (* One scratch per direction for the instance's lifetime (the simulated
     machine is sequential), instead of an allocation per block. *)
  let s_enc = Array.make 8 0 and s_dec = Array.make 8 0 in
  let enc_core = encrypt_core ~kread ~exp ~log ~ops in
  let dec_core = decrypt_core ~kread ~exp ~log ~ops ~spill in
  { Block_cipher.name = "SAFER-simplified";
    block_len = 8;
    encrypt = (fun b off -> run_block enc_core s_enc b off);
    decrypt = (fun b off -> run_block dec_core s_dec b off);
    code_encrypt;
    code_decrypt;
    store_unit = 1 }
