let exp_table =
  let t = Array.make 256 0 in
  let v = ref 1 in
  for i = 0 to 255 do
    t.(i) <- !v land 0xff (* 256 is encoded as 0, at index 128 *);
    v := !v * 45 mod 257
  done;
  t

let log_table =
  let t = Array.make 256 0 in
  Array.iteri (fun i e -> t.(e) <- i) exp_table;
  t

type key = { rounds : int; k : int array (* (2*rounds+1) * 8 round-key bytes *) }

let rotl3 b = ((b lsl 3) lor (b lsr 5)) land 0xff

let expand_key ?(rounds = 6) user =
  if String.length user <> 8 then invalid_arg "Safer.expand_key: key must be 8 bytes";
  if rounds < 1 || rounds > 12 then invalid_arg "Safer.expand_key: rounds";
  let nk = (2 * rounds) + 1 in
  let k = Array.make (nk * 8) 0 in
  let z = Array.init 8 (fun j -> Char.code user.[j]) in
  for j = 0 to 7 do
    k.(j) <- z.(j)
  done;
  for i = 1 to nk - 1 do
    for j = 0 to 7 do
      z.(j) <- rotl3 z.(j)
    done;
    for j = 0 to 7 do
      (* Key bias B_{i+1}(j+1) = exp (exp (9*(i+1) + (j+1))), 1-based as in
         Massey's description. *)
      let bias = exp_table.(exp_table.(((9 * (i + 1)) + j + 1) land 0xff)) in
      k.((i * 8) + j) <- (z.(j) + bias) land 0xff
    done
  done;
  { rounds; k }


(* The round core is shared between the pure and the charged
   implementations: [kread i] fetches round-key byte [i], [exp]/[log] are
   the substitution tables, [ops n] charges [n] ALU operations.  The block
   lives in the array [s] of eight register bytes. *)

let encrypt_core ~kread ~exp ~log ~ops key s =
  let r = key.rounds in
  for i = 0 to r - 1 do
    let k1 = i * 16 and k2 = (i * 16) + 8 in
    (* Mixed XOR/ADD with K_{2i+1}. *)
    s.(0) <- s.(0) lxor kread (k1 + 0);
    s.(1) <- (s.(1) + kread (k1 + 1)) land 0xff;
    s.(2) <- (s.(2) + kread (k1 + 2)) land 0xff;
    s.(3) <- s.(3) lxor kread (k1 + 3);
    s.(4) <- s.(4) lxor kread (k1 + 4);
    s.(5) <- (s.(5) + kread (k1 + 5)) land 0xff;
    s.(6) <- (s.(6) + kread (k1 + 6)) land 0xff;
    s.(7) <- s.(7) lxor kread (k1 + 7);
    (* Nonlinear layer, then mixed ADD/XOR with K_{2i+2}. *)
    s.(0) <- (exp s.(0) + kread (k2 + 0)) land 0xff;
    s.(1) <- log s.(1) lxor kread (k2 + 1);
    s.(2) <- log s.(2) lxor kread (k2 + 2);
    s.(3) <- (exp s.(3) + kread (k2 + 3)) land 0xff;
    s.(4) <- (exp s.(4) + kread (k2 + 4)) land 0xff;
    s.(5) <- log s.(5) lxor kread (k2 + 5);
    s.(6) <- log s.(6) lxor kread (k2 + 6);
    s.(7) <- (exp s.(7) + kread (k2 + 7)) land 0xff;
    ops 32;
    (* Three 2-PHT levels with the Armenian shuffle folded in. *)
    let pht i j =
      let x = s.(i) and y = s.(j) in
      s.(i) <- ((2 * x) + y) land 0xff;
      s.(j) <- (x + y) land 0xff
    in
    pht 0 1; pht 2 3; pht 4 5; pht 6 7;
    pht 0 2; pht 4 6; pht 1 3; pht 5 7;
    pht 0 4; pht 1 5; pht 2 6; pht 3 7;
    ops 36;
    (* Permutation: (a,b,c,d,e,f,g,h) -> (a,e,b,f,c,g,d,h) expressed as the
       two 3-cycles of the reference implementation. *)
    let t = s.(1) in
    s.(1) <- s.(4); s.(4) <- s.(2); s.(2) <- t;
    let t = s.(3) in
    s.(3) <- s.(5); s.(5) <- s.(6); s.(6) <- t;
    ops 8
  done;
  (* Output transform with K_{2r+1}. *)
  let kl = r * 16 in
  s.(0) <- s.(0) lxor kread (kl + 0);
  s.(1) <- (s.(1) + kread (kl + 1)) land 0xff;
  s.(2) <- (s.(2) + kread (kl + 2)) land 0xff;
  s.(3) <- s.(3) lxor kread (kl + 3);
  s.(4) <- s.(4) lxor kread (kl + 4);
  s.(5) <- (s.(5) + kread (kl + 5)) land 0xff;
  s.(6) <- (s.(6) + kread (kl + 6)) land 0xff;
  s.(7) <- s.(7) lxor kread (kl + 7);
  ops 16

let decrypt_core ~kread ~exp ~log ~ops key s =
  let r = key.rounds in
  let sub x k = (x - k) land 0xff in
  (* Invert the output transform. *)
  let kl = r * 16 in
  s.(0) <- s.(0) lxor kread (kl + 0);
  s.(1) <- sub s.(1) (kread (kl + 1));
  s.(2) <- sub s.(2) (kread (kl + 2));
  s.(3) <- s.(3) lxor kread (kl + 3);
  s.(4) <- s.(4) lxor kread (kl + 4);
  s.(5) <- sub s.(5) (kread (kl + 5));
  s.(6) <- sub s.(6) (kread (kl + 6));
  s.(7) <- s.(7) lxor kread (kl + 7);
  ops 16;
  for i = r - 1 downto 0 do
    let k1 = i * 16 and k2 = (i * 16) + 8 in
    (* Invert the permutation: forward sent (a,b,c,d,e,f,g,h) to
       (a,e,b,f,c,g,d,h). *)
    let t = s.(2) in
    s.(2) <- s.(4); s.(4) <- s.(1); s.(1) <- t;
    let t = s.(6) in
    s.(6) <- s.(5); s.(5) <- s.(3); s.(3) <- t;
    ops 8;
    (* Invert the PHT levels, innermost first. *)
    let ipht i j =
      let x = s.(i) and y = s.(j) in
      s.(i) <- (x - y) land 0xff;
      s.(j) <- ((2 * y) - x) land 0xff
    in
    ipht 0 4; ipht 1 5; ipht 2 6; ipht 3 7;
    ipht 0 2; ipht 4 6; ipht 1 3; ipht 5 7;
    ipht 0 1; ipht 2 3; ipht 4 5; ipht 6 7;
    ops 36;
    (* Invert the nonlinear layer and the two key mixings. *)
    s.(0) <- log (sub s.(0) (kread (k2 + 0))) lxor kread (k1 + 0);
    s.(1) <- sub (exp (s.(1) lxor kread (k2 + 1))) (kread (k1 + 1));
    s.(2) <- sub (exp (s.(2) lxor kread (k2 + 2))) (kread (k1 + 2));
    s.(3) <- log (sub s.(3) (kread (k2 + 3))) lxor kread (k1 + 3);
    s.(4) <- log (sub s.(4) (kread (k2 + 4))) lxor kread (k1 + 4);
    s.(5) <- sub (exp (s.(5) lxor kread (k2 + 5))) (kread (k1 + 5));
    s.(6) <- sub (exp (s.(6) lxor kread (k2 + 6))) (kread (k1 + 6));
    s.(7) <- log (sub s.(7) (kread (k2 + 7))) lxor kread (k1 + 7);
    ops 32
  done

(* Run a core on one block through a caller-supplied scratch array, so a
   batch (or a long-lived charged instance) reuses the scratch instead of
   allocating per block. *)
let run_block core s b off =
  for i = 0 to 7 do
    s.(i) <- Char.code (Bytes.get b (off + i))
  done;
  core s;
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr s.(i))
  done

(* A core's block function over its own scratch, built once and called
   per block. *)
let block_fn core =
  let s = Array.make 8 0 in
  fun b off -> run_block core s b off

let pure_exp x = exp_table.(x)
let pure_log x = log_table.(x)
let no_ops (_ : int) = ()

let encrypt_block key =
  block_fn (encrypt_core ~kread:(Array.get key.k) ~exp:pure_exp ~log:pure_log ~ops:no_ops key)

let decrypt_block key =
  block_fn (decrypt_core ~kread:(Array.get key.k) ~exp:pure_exp ~log:pure_log ~ops:no_ops key)

let batch name block b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds");
  for i = 0 to count - 1 do
    block b (off + (i * 8))
  done

let encrypt_blocks key b ~off ~count =
  batch "Safer.encrypt_blocks" (encrypt_block key) b ~off ~count

let decrypt_blocks key b ~off ~count =
  batch "Safer.decrypt_blocks" (decrypt_block key) b ~off ~count

let map_string f key s =
  let n = String.length s in
  if n mod 8 <> 0 then invalid_arg "Safer: input not a multiple of 8 bytes";
  let b = Bytes.of_string s and block = f key in
  let off = ref 0 in
  while !off < n do
    block b !off;
    off := !off + 8
  done;
  Bytes.unsafe_to_string b

let encrypt_string key s = map_string encrypt_block key s
let decrypt_string key s = map_string decrypt_block key s

let charged (sim : Ilp_memsim.Sim.t) ?(rounds = 6) ~key () =
  let open Ilp_memsim in
  let k = expand_key ~rounds key in
  let exp_base = Alloc.alloc sim.alloc ~align:64 256 in
  let log_base = Alloc.alloc sim.alloc ~align:64 256 in
  let key_base = Alloc.alloc sim.alloc ~align:8 (Array.length k.k) in
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (exp_base + i) v) exp_table;
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (log_base + i) v) log_table;
  Array.iteri (fun i v -> Mem.poke_u8 sim.mem (key_base + i) v) k.k;
  let kread i = Mem.get_u8 sim.mem (key_base + i) in
  let exp x = Mem.get_u8 sim.mem (exp_base + x) in
  let log x = Mem.get_u8 sim.mem (log_base + x) in
  let ops n = Machine.compute sim.machine n in
  (* Kernel code footprints: the full cipher is a sizeable unrolled loop;
     sizes approximate the SPARC object code of the reference C version. *)
  let code_encrypt = Code.alloc sim.code ~len:(512 + (rounds * 384)) in
  let code_decrypt = Code.alloc sim.code ~len:(512 + (rounds * 416)) in
  (* One scratch per direction for the instance's lifetime (the simulated
     machine is sequential), instead of an allocation per block. *)
  { Block_cipher.name = Printf.sprintf "SAFER-K64/%d" rounds;
    block_len = 8;
    encrypt = block_fn (encrypt_core ~kread ~exp ~log ~ops k);
    decrypt = block_fn (decrypt_core ~kread ~exp ~log ~ops k);
    code_encrypt;
    code_decrypt;
    store_unit = 1 }
