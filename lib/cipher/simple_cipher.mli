(** The "very simple" encryption of the paper's section 4.1: per-byte
    constant ADD and XOR, no tables, no key vector, similar to the function
    Abbott and Peterson integrated.

    It replaces the simplified SAFER in figures 11-14 to show that a
    manipulation without per-byte memory references roughly doubles the
    relative ILP gain and removes the cache-miss pathology.

    The native kernels run it as one word step, eight bytes per 64-bit
    register operation (SIMD-within-a-register); the in-place passes and
    the fused checksum loops below inline that one step. *)

(** Pure in-place transforms on 8 bytes at the given offset (the 8-byte
    block framing of the stack is kept so the message layout is unchanged). *)
val encrypt_block : Bytes.t -> int -> unit

val decrypt_block : Bytes.t -> int -> unit

val encrypt_string : string -> string
val decrypt_string : string -> string

(** [encrypt_blocks b ~off ~count] transforms [count] consecutive 8-byte
    blocks in place, one 64-bit load, word step and store per block
    (the eight bytes in one register); a call allocates nothing. *)
val encrypt_blocks : Bytes.t -> off:int -> count:int -> unit

val decrypt_blocks : Bytes.t -> off:int -> count:int -> unit

(** [encrypt_fold b ~off ~count acc] is {!encrypt_blocks} with the
    ciphertext folded into the Internet checksum [acc] in the same pass:
    each word is loaded, encrypted in the register, stored and folded
    once.  The result is [acc] extended by the ciphertext. *)
val encrypt_fold :
  Bytes.t -> off:int -> count:int -> Ilp_checksum.Internet.acc ->
  Ilp_checksum.Internet.acc

(** [decrypt_fold ~src ~src_off ~dst ~dst_off ~count acc] folds the
    [count] ciphertext blocks at [src] into [acc] and writes their
    plaintext at [dst], one load and one store per block; [src] is left
    intact unless it is [dst] at the same offset.  The two runs must not
    otherwise overlap.  The result is [acc] extended by the ciphertext. *)
val decrypt_fold :
  src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> count:int ->
  Ilp_checksum.Internet.acc -> Ilp_checksum.Internet.acc

(** [charged sim] returns the charged cipher: ALU ops only, small code
    footprint, no table traffic. *)
val charged : Ilp_memsim.Sim.t -> Block_cipher.t
