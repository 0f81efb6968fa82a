(** Native cipher kernels for the fast path.

    A value of type {!t} selects one of the stack's four ciphers with its
    expanded key held in ordinary OCaml data (no simulated memory, no
    charging).  Every kernel works on a run of N blocks per call, so the
    per-block closure dispatch the charged stack pays is gone.  The
    simple cipher and simplified SAFER run one word step per block: the
    block is loaded once as a 64-bit word, transformed in registers and
    stored once (the simple cipher as SIMD-within-a-register).  SAFER-K64
    and DES run their block kernels. *)

type t =
  | Simple
  | Safer_simplified of Ilp_cipher.Safer_simplified.key
  | Safer of Ilp_cipher.Safer.key
  | Des of Ilp_cipher.Des.key

val name : t -> string

(** [encrypt_blocks t b ~off ~count] transforms [count] consecutive 8-byte
    blocks of [b] in place.  Byte-compatible with the charged cipher of the
    same name: the wire output of the native path is identical to the
    simulated one. *)
val encrypt_blocks : t -> Bytes.t -> off:int -> count:int -> unit

val decrypt_blocks : t -> Bytes.t -> off:int -> count:int -> unit

(** {2 Fused entries}

    The ILP loop of each cipher: one pass that ciphers the blocks and
    folds the ciphertext into the Internet checksum.  For the simple
    cipher and simplified SAFER each 64-bit block is loaded once, folded
    and ciphered in registers, and stored once, with the checksum's lane
    sum kept in a register ({!Ilp_checksum.Internet.add_lanes}).
    SAFER-K64 and DES fold each block beside a call of their block
    kernel, while the block is in L1.  A call allocates nothing, whatever
    the cipher. *)

(** [encrypt_fold t b ~off ~count acc] encrypts [count] blocks of [b] in
    place, as {!encrypt_blocks} does, and returns [acc] extended by the
    ciphertext. *)
val encrypt_fold :
  t -> Bytes.t -> off:int -> count:int -> Ilp_checksum.Internet.acc ->
  Ilp_checksum.Internet.acc

(** [decrypt_fold t ~src ~src_off ~dst ~dst_off ~count acc] writes the
    plaintext of [count] ciphertext blocks at [src] to [dst] and returns
    [acc] extended by the ciphertext.  [src] is left intact unless it is
    [dst] at the same offset; the runs must not otherwise overlap. *)
val decrypt_fold :
  t -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> count:int ->
  Ilp_checksum.Internet.acc -> Ilp_checksum.Internet.acc
