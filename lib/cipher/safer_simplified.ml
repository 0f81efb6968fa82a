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

let check_batch name b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds")

(* The batch kernels are [encrypt_core]/[decrypt_core] written out with
   the key bytes in locals and the table lookups inline: no partial
   application, closure call or scratch block per call, so a call
   allocates nothing.  [get]/[set] are top-level for the same reason (a
   local helper capturing [b] is a closure allocation per call). *)
let get b o = Char.code (Bytes.unsafe_get b o)
let set b o v = Bytes.unsafe_set b o (Char.unsafe_chr (v land 0xff))

let encrypt_blocks key b ~off ~count =
  check_batch "Safer_simplified.encrypt_blocks" b ~off ~count;
  let k = key.k and ex = Safer.exp_table and lg = Safer.log_table in
  let k0 = k.(0) and k1 = k.(1) and k2 = k.(2) and k3 = k.(3) in
  let k4 = k.(4) and k5 = k.(5) and k6 = k.(6) and k7 = k.(7) in
  for i = 0 to count - 1 do
    let o = off + (i * 8) in
    let x0 = ex.(get b o lxor k0) and x1 = lg.((get b (o + 1) + k1) land 0xff) in
    let x2 = lg.((get b (o + 2) + k2) land 0xff) and x3 = ex.(get b (o + 3) lxor k3) in
    let x4 = ex.(get b (o + 4) lxor k4) and x5 = lg.((get b (o + 5) + k5) land 0xff) in
    let x6 = lg.((get b (o + 6) + k6) land 0xff) and x7 = ex.(get b (o + 7) lxor k7) in
    set b o ((2 * x0) + x1);
    set b (o + 1) (x0 + x1);
    set b (o + 2) ((2 * x2) + x3);
    set b (o + 3) (x2 + x3);
    set b (o + 4) ((2 * x4) + x5);
    set b (o + 5) (x4 + x5);
    set b (o + 6) ((2 * x6) + x7);
    set b (o + 7) (x6 + x7)
  done

let decrypt_blocks key b ~off ~count =
  check_batch "Safer_simplified.decrypt_blocks" b ~off ~count;
  let k = key.k and ex = Safer.exp_table and lg = Safer.log_table in
  let k0 = k.(0) and k1 = k.(1) and k2 = k.(2) and k3 = k.(3) in
  let k4 = k.(4) and k5 = k.(5) and k6 = k.(6) and k7 = k.(7) in
  for i = 0 to count - 1 do
    let o = off + (i * 8) in
    let y0 = get b o and y1 = get b (o + 1) and y2 = get b (o + 2) and y3 = get b (o + 3) in
    let y4 = get b (o + 4) and y5 = get b (o + 5) and y6 = get b (o + 6) and y7 = get b (o + 7) in
    set b o (lg.((y0 - y1) land 0xff) lxor k0);
    set b (o + 1) (ex.(((2 * y1) - y0) land 0xff) - k1);
    set b (o + 2) (ex.((y2 - y3) land 0xff) - k2);
    set b (o + 3) (lg.(((2 * y3) - y2) land 0xff) lxor k3);
    set b (o + 4) (lg.((y4 - y5) land 0xff) lxor k4);
    set b (o + 5) (ex.(((2 * y5) - y4) land 0xff) - k5);
    set b (o + 6) (ex.((y6 - y7) land 0xff) - k6);
    set b (o + 7) (lg.(((2 * y7) - y6) land 0xff) lxor k7)
  done

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
    encrypt_blocks =
      Some
        (fun b off count ->
          for i = 0 to count - 1 do
            run_block enc_core s_enc b (off + (i * 8))
          done);
    decrypt_blocks =
      Some
        (fun b off count ->
          for i = 0 to count - 1 do
            run_block dec_core s_dec b (off + (i * 8))
          done);
    code_encrypt;
    code_decrypt;
    store_unit = 1 }
