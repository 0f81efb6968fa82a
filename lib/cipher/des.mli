(** DES (FIPS 46): the baseline cipher the paper measures the simplified
    SAFER against.

    The paper cites DES as the canonical "too complex" data manipulation:
    its processing time hides any ILP gain entirely (Gunningberg et al.),
    and even a fast software implementation only reaches ~1 Mbit/s on a
    SPARCstation 10.  This is a complete implementation (initial/final
    permutation, 16 Feistel rounds, PC1/PC2 key schedule) validated against
    the classic FIPS worked example; the charged instance keeps its S-boxes
    in simulated memory and charges ~240 ALU ops per byte, which lands its
    simulated throughput in the paper's reported range. *)

type key

(** [expand_key k] computes the 16 round keys from the 8-byte key [k]
    (parity bits are ignored, as usual). *)
val expand_key : string -> key

(** Pure in-place transforms on 8 bytes at the given offset.  They
    allocate nothing: the block is permuted as two 32-bit halves held in
    ints, never as a boxed [int64]. *)
val encrypt_block : key -> Bytes.t -> int -> unit

val decrypt_block : key -> Bytes.t -> int -> unit

val encrypt_string : key -> string -> string
val decrypt_string : key -> string -> string

(** [encrypt_blocks key b ~off ~count] transforms [count] consecutive
    8-byte blocks in place, allocating nothing. *)
val encrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

val decrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

val charged : Ilp_memsim.Sim.t -> key:string -> unit -> Block_cipher.t
