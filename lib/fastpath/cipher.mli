(** Native cipher kernels for the fast path.

    A value of type {!t} selects one of the stack's four ciphers with its
    expanded key held in ordinary OCaml data (no simulated memory, no
    charging).  All kernels work in batches — N blocks per call — so the
    per-block closure dispatch the charged stack pays is gone, and the
    simple cipher runs eight bytes per 64-bit register operation
    (SIMD-within-a-register). *)

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
