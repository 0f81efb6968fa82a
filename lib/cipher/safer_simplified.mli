(** The paper's simplified SAFER K-64 (section 3.1).

    The real cipher is ~100x slower than the rest of the stack, which would
    hide any ILP effect, so the authors reduced it to one operation of each
    type it contains: a mixed ADD/XOR key layer on each byte, a mixed
    logarithm/exponential table substitution on each byte, and a final
    2-PHT on each pair of bytes.  It reaches ~50 Mbit/s on a
    SPARCstation 10 — fast enough that memory behaviour, not ALU work,
    dominates.

    The characteristics that drive the paper's cache analysis are kept
    in the charged cipher: the algorithm is byte-oriented, reads a key
    byte-vector and two 256-byte tables for every data byte, and its
    decryption needs more intermediate variables than encryption
    (modelled as a partial register spill to a scratch area in simulated
    memory).

    The native kernels run the same rounds as one word step: an 8-byte
    block is one 64-bit word read little-endian, its bytes taken apart,
    transformed and put together in registers.  The in-place passes and
    the fused checksum loops below inline that one step. *)

type key

(** [expand_key k] takes the 8-byte user key. *)
val expand_key : string -> key

(** Pure in-place transforms on 8 bytes at the given offset. *)
val encrypt_block : key -> Bytes.t -> int -> unit

val decrypt_block : key -> Bytes.t -> int -> unit

val encrypt_string : key -> string -> string
val decrypt_string : key -> string -> string

(** [encrypt_blocks key b ~off ~count] transforms [count] consecutive
    8-byte blocks in place, byte-identical to {!encrypt_block} on each
    block: one 64-bit load, word step and store per block, the block in
    registers in between; a call allocates nothing. *)
val encrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

val decrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

(** [encrypt_fold key b ~off ~count acc] is {!encrypt_blocks} with the
    ciphertext folded into the Internet checksum [acc] in the same pass:
    each block is loaded, encrypted in registers, stored and folded
    once.  The result is [acc] extended by the ciphertext. *)
val encrypt_fold :
  key -> Bytes.t -> off:int -> count:int -> Ilp_checksum.Internet.acc ->
  Ilp_checksum.Internet.acc

(** [decrypt_fold key ~src ~src_off ~dst ~dst_off ~count acc] folds the
    [count] ciphertext blocks at [src] into [acc] and writes their
    plaintext at [dst], one load and one store per block; [src] is left
    intact unless it is [dst] at the same offset.  The two runs must not
    otherwise overlap.  The result is [acc] extended by the ciphertext. *)
val decrypt_fold :
  key -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> count:int ->
  Ilp_checksum.Internet.acc -> Ilp_checksum.Internet.acc

(** [charged sim ~key ()] allocates the key vector, the two tables and the
    decryption scratch area in simulated memory and returns the charged
    cipher.  The decryption kernel spills 4 intermediate bytes per block
    through that scratch area. *)
val charged : Ilp_memsim.Sim.t -> key:string -> unit -> Block_cipher.t
