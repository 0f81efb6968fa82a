(* Tables from FIPS 46-3.  Entries are 1-based bit positions counted from
   the most significant bit of the input, as in the standard. *)

let ip =
  [| 58; 50; 42; 34; 26; 18; 10; 2; 60; 52; 44; 36; 28; 20; 12; 4;
     62; 54; 46; 38; 30; 22; 14; 6; 64; 56; 48; 40; 32; 24; 16; 8;
     57; 49; 41; 33; 25; 17;  9; 1; 59; 51; 43; 35; 27; 19; 11; 3;
     61; 53; 45; 37; 29; 21; 13; 5; 63; 55; 47; 39; 31; 23; 15; 7 |]

let fp =
  [| 40; 8; 48; 16; 56; 24; 64; 32; 39; 7; 47; 15; 55; 23; 63; 31;
     38; 6; 46; 14; 54; 22; 62; 30; 37; 5; 45; 13; 53; 21; 61; 29;
     36; 4; 44; 12; 52; 20; 60; 28; 35; 3; 43; 11; 51; 19; 59; 27;
     34; 2; 42; 10; 50; 18; 58; 26; 33; 1; 41;  9; 49; 17; 57; 25 |]

let e_table =
  [| 32; 1; 2; 3; 4; 5; 4; 5; 6; 7; 8; 9; 8; 9; 10; 11; 12; 13;
     12; 13; 14; 15; 16; 17; 16; 17; 18; 19; 20; 21; 20; 21; 22; 23; 24; 25;
     24; 25; 26; 27; 28; 29; 28; 29; 30; 31; 32; 1 |]

let p_table =
  [| 16; 7; 20; 21; 29; 12; 28; 17; 1; 15; 23; 26; 5; 18; 31; 10;
     2; 8; 24; 14; 32; 27; 3; 9; 19; 13; 30; 6; 22; 11; 4; 25 |]

let pc1 =
  [| 57; 49; 41; 33; 25; 17;  9;  1; 58; 50; 42; 34; 26; 18;
     10;  2; 59; 51; 43; 35; 27; 19; 11;  3; 60; 52; 44; 36;
     63; 55; 47; 39; 31; 23; 15;  7; 62; 54; 46; 38; 30; 22;
     14;  6; 61; 53; 45; 37; 29; 21; 13;  5; 28; 20; 12;  4 |]

let pc2 =
  [| 14; 17; 11; 24;  1;  5;  3; 28; 15;  6; 21; 10;
     23; 19; 12;  4; 26;  8; 16;  7; 27; 20; 13;  2;
     41; 52; 31; 37; 47; 55; 30; 40; 51; 45; 33; 48;
     44; 49; 39; 56; 34; 53; 46; 42; 50; 36; 29; 32 |]

let shifts = [| 1; 1; 2; 2; 2; 2; 2; 2; 1; 2; 2; 2; 2; 2; 2; 1 |]

let sboxes =
  [| [| 14; 4;13; 1; 2;15;11; 8; 3;10; 6;12; 5; 9; 0; 7;
         0;15; 7; 4;14; 2;13; 1;10; 6;12;11; 9; 5; 3; 8;
         4; 1;14; 8;13; 6; 2;11;15;12; 9; 7; 3;10; 5; 0;
        15;12; 8; 2; 4; 9; 1; 7; 5;11; 3;14;10; 0; 6;13 |];
     [| 15; 1; 8;14; 6;11; 3; 4; 9; 7; 2;13;12; 0; 5;10;
         3;13; 4; 7;15; 2; 8;14;12; 0; 1;10; 6; 9;11; 5;
         0;14; 7;11;10; 4;13; 1; 5; 8;12; 6; 9; 3; 2;15;
        13; 8;10; 1; 3;15; 4; 2;11; 6; 7;12; 0; 5;14; 9 |];
     [| 10; 0; 9;14; 6; 3;15; 5; 1;13;12; 7;11; 4; 2; 8;
        13; 7; 0; 9; 3; 4; 6;10; 2; 8; 5;14;12;11;15; 1;
        13; 6; 4; 9; 8;15; 3; 0;11; 1; 2;12; 5;10;14; 7;
         1;10;13; 0; 6; 9; 8; 7; 4;15;14; 3;11; 5; 2;12 |];
     [|  7;13;14; 3; 0; 6; 9;10; 1; 2; 8; 5;11;12; 4;15;
        13; 8;11; 5; 6;15; 0; 3; 4; 7; 2;12; 1;10;14; 9;
        10; 6; 9; 0;12;11; 7;13;15; 1; 3;14; 5; 2; 8; 4;
         3;15; 0; 6;10; 1;13; 8; 9; 4; 5;11;12; 7; 2;14 |];
     [|  2;12; 4; 1; 7;10;11; 6; 8; 5; 3;15;13; 0;14; 9;
        14;11; 2;12; 4; 7;13; 1; 5; 0;15;10; 3; 9; 8; 6;
         4; 2; 1;11;10;13; 7; 8;15; 9;12; 5; 6; 3; 0;14;
        11; 8;12; 7; 1;14; 2;13; 6;15; 0; 9;10; 4; 5; 3 |];
     [| 12; 1;10;15; 9; 2; 6; 8; 0;13; 3; 4;14; 7; 5;11;
        10;15; 4; 2; 7;12; 9; 5; 6; 1;13;14; 0;11; 3; 8;
         9;14;15; 5; 2; 8;12; 3; 7; 0; 4;10; 1;13;11; 6;
         4; 3; 2;12; 9; 5;15;10;11;14; 1; 7; 6; 0; 8;13 |];
     [|  4;11; 2;14;15; 0; 8;13; 3;12; 9; 7; 5;10; 6; 1;
        13; 0;11; 7; 4; 9; 1;10;14; 3; 5;12; 2;15; 8; 6;
         1; 4;11;13;12; 3; 7;14;10;15; 6; 8; 0; 5; 9; 2;
         6;11;13; 8; 1; 4;10; 7; 9; 5; 0;15;14; 2; 3;12 |];
     [| 13; 2; 8; 4; 6;15;11; 1;10; 9; 3;14; 5; 0;12; 7;
         1;15;13; 8;10; 3; 7; 4;12; 5; 6;11; 0;14; 9; 2;
         7;11; 4; 1; 9;12;14; 2; 0; 6;10;13;15; 3; 5; 8;
         2; 1;14; 7; 4;10; 8;13;15;12; 9; 0; 3; 5; 6;11 |] |]

(* [permute64 v table] picks table.(i)-th bit (1-based from MSB of the
   64-bit value [v]) as output bit i; result in a plain int (tables of
   width <= 56 only). *)
let permute64 (v : int64) table =
  let n = Array.length table in
  let out = ref 0 in
  for i = 0 to n - 1 do
    let bit = Int64.to_int (Int64.logand (Int64.shift_right_logical v (64 - table.(i))) 1L) in
    out := (!out lsl 1) lor bit
  done;
  !out

(* One 32-bit half of IP or FP: output bits [from .. from + 31] of the
   64-bit value whose high half is [hi] and low half [lo], both held in
   ints, so the block never lives in a boxed [int64]. *)
let permute_half hi lo table ~from =
  let out = ref 0 in
  for i = from to from + 31 do
    let p = table.(i) in
    let bit = if p <= 32 then (hi lsr (32 - p)) land 1 else (lo lsr (64 - p)) land 1 in
    out := (!out lsl 1) lor bit
  done;
  !out

(* Source held in an int of [width] significant bits. *)
let permute v ~width table =
  let n = Array.length table in
  let out = ref 0 in
  for i = 0 to n - 1 do
    let bit = (v lsr (width - table.(i))) land 1 in
    out := (!out lsl 1) lor bit
  done;
  !out

type key = { subkeys : int array (* 16 round keys of 48 bits *) }

let rotl28 v n = ((v lsl n) lor (v lsr (28 - n))) land 0xfffffff

let expand_key user =
  if String.length user <> 8 then invalid_arg "Des.expand_key: key must be 8 bytes";
  let k64 = Bytes.get_int64_be (Bytes.of_string user) 0 in
  let cd = permute64 k64 pc1 in
  let c = ref (cd lsr 28) and d = ref (cd land 0xfffffff) in
  let subkeys =
    Array.map
      (fun s ->
        c := rotl28 !c s;
        d := rotl28 !d s;
        permute ((!c lsl 28) lor !d) ~width:56 pc2)
      shifts
  in
  { subkeys }

(* The Feistel function: expand R to 48 bits, mix the subkey, substitute
   through the S-boxes, permute.  [sbox b i] returns S-box [b] applied to
   the 6-bit value [i]; the charged instance reads simulated memory here. *)
let feistel ~sbox r subkey =
  let x = permute r ~width:32 e_table lxor subkey in
  let out = ref 0 in
  for b = 0 to 7 do
    let six = (x lsr ((7 - b) * 6)) land 0x3f in
    let row = ((six lsr 4) land 2) lor (six land 1) in
    let col = (six lsr 1) land 0xf in
    out := (!out lsl 4) lor sbox b ((row * 16) + col)
  done;
  permute !out ~width:32 p_table

(* The block at [off] of [b], in place. *)
let crypt_core ~sbox ~ops subkeys ~decrypt b off =
  let hi = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
  and lo = Int32.to_int (Bytes.get_int32_be b (off + 4)) land 0xffffffff in
  let l = ref (permute_half hi lo ip ~from:0) and r = ref (permute_half hi lo ip ~from:32) in
  ops 140;
  for i = 0 to 15 do
    let k = if decrypt then subkeys.(15 - i) else subkeys.(i) in
    let t = !r in
    r := !l lxor feistel ~sbox t k;
    l := t;
    ops 100
  done;
  ops 140;
  (* The halves swap before the final permutation: R is the high one. *)
  Bytes.set_int32_be b off (Int32.of_int (permute_half !r !l fp ~from:0));
  Bytes.set_int32_be b (off + 4) (Int32.of_int (permute_half !r !l fp ~from:32))

let pure_sbox b i = sboxes.(b).(i)
let no_ops (_ : int) = ()

let encrypt_block key b off =
  crypt_core ~sbox:pure_sbox ~ops:no_ops key.subkeys ~decrypt:false b off

let decrypt_block key b off =
  crypt_core ~sbox:pure_sbox ~ops:no_ops key.subkeys ~decrypt:true b off

let batch name block key b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds");
  for i = 0 to count - 1 do
    block key b (off + (i * 8))
  done

let encrypt_blocks key b ~off ~count = batch "Des.encrypt_blocks" encrypt_block key b ~off ~count
let decrypt_blocks key b ~off ~count = batch "Des.decrypt_blocks" decrypt_block key b ~off ~count

let map_string f key s =
  let n = String.length s in
  if n mod 8 <> 0 then invalid_arg "Des: input not a multiple of 8 bytes";
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    f key b !off;
    off := !off + 8
  done;
  Bytes.unsafe_to_string b

let encrypt_string key s = map_string encrypt_block key s
let decrypt_string key s = map_string decrypt_block key s

let charged (sim : Ilp_memsim.Sim.t) ~key () =
  let open Ilp_memsim in
  let k = expand_key key in
  (* S-boxes stored as 8 contiguous 64-byte tables. *)
  let sbox_base = Alloc.alloc sim.alloc ~align:64 (8 * 64) in
  Array.iteri
    (fun b tbl -> Array.iteri (fun i v -> Mem.poke_u8 sim.mem (sbox_base + (b * 64) + i) v) tbl)
    sboxes;
  let sbox b i = Mem.get_u8 sim.mem (sbox_base + (b * 64) + i) in
  let ops n = Machine.compute sim.machine n in
  let code_encrypt = Code.alloc sim.code ~len:6144 in
  let code_decrypt = Code.alloc sim.code ~len:6144 in
  { Block_cipher.name = "DES";
    block_len = 8;
    encrypt = crypt_core ~sbox ~ops k.subkeys ~decrypt:false;
    decrypt = crypt_core ~sbox ~ops k.subkeys ~decrypt:true;
    code_encrypt;
    code_decrypt;
    store_unit = 4 }
