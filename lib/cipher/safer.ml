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


(* One 2-PHT, [PHT (x, y) = (2x+y, x+y) mod 256], and its inverse, as
   two bytes of one int (the first output in the low byte). *)
let[@inline] pht2 x y = (((2 * x) + y) land 0xff) lor (((x + y) land 0xff) lsl 8)
let[@inline] ipht2 x y = ((x - y) land 0xff) lor ((((2 * y) - x) land 0xff) lsl 8)

(* The round core is shared between the pure and the charged
   implementations: [kread key i] fetches round-key byte [i], [exp]/[log]
   are the substitution tables, [ops n] charges [n] ALU operations.  The
   block at [off] of [b] lives in eight locals from its load to its
   store, so the core allocates nothing: no scratch block, and no
   closure per key or per round. *)

let encrypt_core ~kread ~exp ~log ~ops key b off =
  let r = key.rounds in
  let s0 = ref (Char.code (Bytes.get b off)) and s1 = ref (Char.code (Bytes.get b (off + 1)))
  and s2 = ref (Char.code (Bytes.get b (off + 2))) and s3 = ref (Char.code (Bytes.get b (off + 3)))
  and s4 = ref (Char.code (Bytes.get b (off + 4))) and s5 = ref (Char.code (Bytes.get b (off + 5)))
  and s6 = ref (Char.code (Bytes.get b (off + 6))) and s7 = ref (Char.code (Bytes.get b (off + 7))) in
  for i = 0 to r - 1 do
    let k1 = i * 16 and k2 = (i * 16) + 8 in
    (* Mixed XOR/ADD with K_{2i+1}. *)
    s0 := !s0 lxor kread key (k1 + 0);
    s1 := (!s1 + kread key (k1 + 1)) land 0xff;
    s2 := (!s2 + kread key (k1 + 2)) land 0xff;
    s3 := !s3 lxor kread key (k1 + 3);
    s4 := !s4 lxor kread key (k1 + 4);
    s5 := (!s5 + kread key (k1 + 5)) land 0xff;
    s6 := (!s6 + kread key (k1 + 6)) land 0xff;
    s7 := !s7 lxor kread key (k1 + 7);
    (* Nonlinear layer, then mixed ADD/XOR with K_{2i+2}. *)
    s0 := (exp !s0 + kread key (k2 + 0)) land 0xff;
    s1 := log !s1 lxor kread key (k2 + 1);
    s2 := log !s2 lxor kread key (k2 + 2);
    s3 := (exp !s3 + kread key (k2 + 3)) land 0xff;
    s4 := (exp !s4 + kread key (k2 + 4)) land 0xff;
    s5 := log !s5 lxor kread key (k2 + 5);
    s6 := log !s6 lxor kread key (k2 + 6);
    s7 := (exp !s7 + kread key (k2 + 7)) land 0xff;
    ops 32;
    (* Three 2-PHT levels with the Armenian shuffle folded in. *)
    let p = pht2 !s0 !s1 in s0 := p land 0xff; s1 := p lsr 8;
    let p = pht2 !s2 !s3 in s2 := p land 0xff; s3 := p lsr 8;
    let p = pht2 !s4 !s5 in s4 := p land 0xff; s5 := p lsr 8;
    let p = pht2 !s6 !s7 in s6 := p land 0xff; s7 := p lsr 8;
    let p = pht2 !s0 !s2 in s0 := p land 0xff; s2 := p lsr 8;
    let p = pht2 !s4 !s6 in s4 := p land 0xff; s6 := p lsr 8;
    let p = pht2 !s1 !s3 in s1 := p land 0xff; s3 := p lsr 8;
    let p = pht2 !s5 !s7 in s5 := p land 0xff; s7 := p lsr 8;
    let p = pht2 !s0 !s4 in s0 := p land 0xff; s4 := p lsr 8;
    let p = pht2 !s1 !s5 in s1 := p land 0xff; s5 := p lsr 8;
    let p = pht2 !s2 !s6 in s2 := p land 0xff; s6 := p lsr 8;
    let p = pht2 !s3 !s7 in s3 := p land 0xff; s7 := p lsr 8;
    ops 36;
    (* Permutation: (a,b,c,d,e,f,g,h) -> (a,e,b,f,c,g,d,h) expressed as the
       two 3-cycles of the reference implementation. *)
    let t = !s1 in
    s1 := !s4; s4 := !s2; s2 := t;
    let t = !s3 in
    s3 := !s5; s5 := !s6; s6 := t;
    ops 8
  done;
  (* Output transform with K_{2r+1}. *)
  let kl = r * 16 in
  Bytes.set b off (Char.chr (!s0 lxor kread key (kl + 0)));
  Bytes.set b (off + 1) (Char.chr ((!s1 + kread key (kl + 1)) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((!s2 + kread key (kl + 2)) land 0xff));
  Bytes.set b (off + 3) (Char.chr (!s3 lxor kread key (kl + 3)));
  Bytes.set b (off + 4) (Char.chr (!s4 lxor kread key (kl + 4)));
  Bytes.set b (off + 5) (Char.chr ((!s5 + kread key (kl + 5)) land 0xff));
  Bytes.set b (off + 6) (Char.chr ((!s6 + kread key (kl + 6)) land 0xff));
  Bytes.set b (off + 7) (Char.chr (!s7 lxor kread key (kl + 7)));
  ops 16

let decrypt_core ~kread ~exp ~log ~ops key b off =
  let r = key.rounds in
  let sub x k = (x - k) land 0xff in
  (* Invert the output transform. *)
  let kl = r * 16 in
  let s0 = ref (Char.code (Bytes.get b off) lxor kread key (kl + 0)) in
  let s1 = ref (sub (Char.code (Bytes.get b (off + 1))) (kread key (kl + 1))) in
  let s2 = ref (sub (Char.code (Bytes.get b (off + 2))) (kread key (kl + 2))) in
  let s3 = ref (Char.code (Bytes.get b (off + 3)) lxor kread key (kl + 3)) in
  let s4 = ref (Char.code (Bytes.get b (off + 4)) lxor kread key (kl + 4)) in
  let s5 = ref (sub (Char.code (Bytes.get b (off + 5))) (kread key (kl + 5))) in
  let s6 = ref (sub (Char.code (Bytes.get b (off + 6))) (kread key (kl + 6))) in
  let s7 = ref (Char.code (Bytes.get b (off + 7)) lxor kread key (kl + 7)) in
  ops 16;
  for i = r - 1 downto 0 do
    let k1 = i * 16 and k2 = (i * 16) + 8 in
    (* Invert the permutation: forward sent (a,b,c,d,e,f,g,h) to
       (a,e,b,f,c,g,d,h). *)
    let t = !s2 in
    s2 := !s4; s4 := !s1; s1 := t;
    let t = !s6 in
    s6 := !s5; s5 := !s3; s3 := t;
    ops 8;
    (* Invert the PHT levels, innermost first. *)
    let p = ipht2 !s0 !s4 in s0 := p land 0xff; s4 := p lsr 8;
    let p = ipht2 !s1 !s5 in s1 := p land 0xff; s5 := p lsr 8;
    let p = ipht2 !s2 !s6 in s2 := p land 0xff; s6 := p lsr 8;
    let p = ipht2 !s3 !s7 in s3 := p land 0xff; s7 := p lsr 8;
    let p = ipht2 !s0 !s2 in s0 := p land 0xff; s2 := p lsr 8;
    let p = ipht2 !s4 !s6 in s4 := p land 0xff; s6 := p lsr 8;
    let p = ipht2 !s1 !s3 in s1 := p land 0xff; s3 := p lsr 8;
    let p = ipht2 !s5 !s7 in s5 := p land 0xff; s7 := p lsr 8;
    let p = ipht2 !s0 !s1 in s0 := p land 0xff; s1 := p lsr 8;
    let p = ipht2 !s2 !s3 in s2 := p land 0xff; s3 := p lsr 8;
    let p = ipht2 !s4 !s5 in s4 := p land 0xff; s5 := p lsr 8;
    let p = ipht2 !s6 !s7 in s6 := p land 0xff; s7 := p lsr 8;
    ops 36;
    (* Invert the nonlinear layer and the two key mixings. *)
    s0 := log (sub !s0 (kread key (k2 + 0))) lxor kread key (k1 + 0);
    s1 := sub (exp (!s1 lxor kread key (k2 + 1))) (kread key (k1 + 1));
    s2 := sub (exp (!s2 lxor kread key (k2 + 2))) (kread key (k1 + 2));
    s3 := log (sub !s3 (kread key (k2 + 3))) lxor kread key (k1 + 3);
    s4 := log (sub !s4 (kread key (k2 + 4))) lxor kread key (k1 + 4);
    s5 := sub (exp (!s5 lxor kread key (k2 + 5))) (kread key (k1 + 5));
    s6 := sub (exp (!s6 lxor kread key (k2 + 6))) (kread key (k1 + 6));
    s7 := log (sub !s7 (kread key (k2 + 7))) lxor kread key (k1 + 7);
    ops 32
  done;
  Bytes.set b off (Char.chr !s0);
  Bytes.set b (off + 1) (Char.chr !s1);
  Bytes.set b (off + 2) (Char.chr !s2);
  Bytes.set b (off + 3) (Char.chr !s3);
  Bytes.set b (off + 4) (Char.chr !s4);
  Bytes.set b (off + 5) (Char.chr !s5);
  Bytes.set b (off + 6) (Char.chr !s6);
  Bytes.set b (off + 7) (Char.chr !s7)

let pure_kread key i = key.k.(i)
let pure_exp x = exp_table.(x)
let pure_log x = log_table.(x)
let no_ops (_ : int) = ()

let encrypt_block key b off =
  encrypt_core ~kread:pure_kread ~exp:pure_exp ~log:pure_log ~ops:no_ops key b off

let decrypt_block key b off =
  decrypt_core ~kread:pure_kread ~exp:pure_exp ~log:pure_log ~ops:no_ops key b off

let batch name block key b ~off ~count =
  if off < 0 || count < 0 || off + (count * 8) > Bytes.length b then
    invalid_arg (name ^ ": block run out of bounds");
  for i = 0 to count - 1 do
    block key b (off + (i * 8))
  done

let encrypt_blocks key b ~off ~count =
  batch "Safer.encrypt_blocks" encrypt_block key b ~off ~count

let decrypt_blocks key b ~off ~count =
  batch "Safer.decrypt_blocks" decrypt_block key b ~off ~count

let map_string f key s =
  let n = String.length s in
  if n mod 8 <> 0 then invalid_arg "Safer: input not a multiple of 8 bytes";
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    f key b !off;
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
  let kread (_ : key) i = Mem.get_u8 sim.mem (key_base + i) in
  let exp x = Mem.get_u8 sim.mem (exp_base + x) in
  let log x = Mem.get_u8 sim.mem (log_base + x) in
  let ops n = Machine.compute sim.machine n in
  (* Kernel code footprints: the full cipher is a sizeable unrolled loop;
     sizes approximate the SPARC object code of the reference C version. *)
  let code_encrypt = Code.alloc sim.code ~len:(512 + (rounds * 384)) in
  let code_decrypt = Code.alloc sim.code ~len:(512 + (rounds * 416)) in
  { Block_cipher.name = Printf.sprintf "SAFER-K64/%d" rounds;
    block_len = 8;
    encrypt = encrypt_core ~kread ~exp ~log ~ops k;
    decrypt = decrypt_core ~kread ~exp ~log ~ops k;
    code_encrypt;
    code_decrypt;
    store_unit = 1 }
