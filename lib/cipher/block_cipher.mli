(** Common interface to charged block ciphers.

    A [t] is a cipher instance bound to one simulated machine: its key
    material and lookup tables live in simulated memory, so encrypting a
    block charges the machine for table reads and ALU work.  The block
    itself is transformed {e in registers} (a small [Bytes.t] scratch): it
    is the caller — the non-ILP pass or the fused ILP loop — that decides
    when and in what unit sizes the block crosses memory, which is the
    whole point of the paper. *)

type t = {
  name : string;
  block_len : int;  (** processing-unit size in bytes; 8 for all paper ciphers *)
  encrypt : Bytes.t -> int -> unit;
      (** [encrypt block off] transforms [block_len] bytes in place *)
  decrypt : Bytes.t -> int -> unit;
  code_encrypt : Ilp_memsim.Code.region;
      (** instruction footprint of the encryption kernel *)
  code_decrypt : Ilp_memsim.Code.region;
  store_unit : int;
      (** the widest store the kernel's macro-expanded code emits when its
          output goes straight to memory: 1 for the byte-oriented SAFER
          family (the paper: "they write single bytes into the memory"),
          4 for word-oriented manipulations like the simple cipher *)
}

(** [roundtrip_ok t] checks [decrypt (encrypt b) = b] on a sample block. *)
val roundtrip_ok : t -> bool

(** [encrypt_string t s] applies the cipher in ECB mode;
    [String.length s] must be a multiple of [block_len]. *)
val encrypt_string : t -> string -> string
