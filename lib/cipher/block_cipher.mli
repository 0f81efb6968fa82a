(** Common interface to charged block ciphers.

    A [t] is a cipher instance bound to one simulated machine: its key
    material and lookup tables live in simulated memory, so encrypting a
    block charges the machine for table reads and ALU work.  The block
    itself is transformed {e in registers} (a small [Bytes.t] scratch): it
    is the caller — the non-ILP pass or the fused ILP loop — that decides
    when and in what unit sizes the block crosses memory, which is the
    whole point of the paper. *)

type blocks_fn = Bytes.t -> int -> int -> unit
(** [f buf off count] transforms [count] consecutive blocks in place
    starting at [off].  Batch kernels amortise per-call setup (scratch
    reuse, key-schedule reads kept in registers) across the run. *)

type t = {
  name : string;
  block_len : int;  (** processing-unit size in bytes; 8 for all paper ciphers *)
  encrypt : Bytes.t -> int -> unit;
      (** [encrypt block off] transforms [block_len] bytes in place *)
  decrypt : Bytes.t -> int -> unit;
  encrypt_blocks : blocks_fn option;
      (** optional batch kernel; [None] falls back to a per-block loop *)
  decrypt_blocks : blocks_fn option;
  code_encrypt : Ilp_memsim.Code.region;
      (** instruction footprint of the encryption kernel *)
  code_decrypt : Ilp_memsim.Code.region;
  store_unit : int;
      (** the widest store the kernel's macro-expanded code emits when its
          output goes straight to memory: 1 for the byte-oriented SAFER
          family (the paper: "they write single bytes into the memory"),
          4 for word-oriented manipulations like the simple cipher *)
}

(** [encrypt_blocks t buf ~off ~count] transforms [count] consecutive
    blocks of [buf] in place, via the cipher's batch kernel when it has
    one and a per-block dispatch loop otherwise.  Bounds-checked. *)
val encrypt_blocks : t -> Bytes.t -> off:int -> count:int -> unit

val decrypt_blocks : t -> Bytes.t -> off:int -> count:int -> unit

(** [roundtrip_ok t] checks [decrypt (encrypt b) = b] on a sample block. *)
val roundtrip_ok : t -> bool

(** [encrypt_string t s] applies the cipher in ECB mode;
    [String.length s] must be a multiple of [block_len]. *)
val encrypt_string : t -> string -> string
