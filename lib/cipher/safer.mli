(** SAFER K-64 (Massey, FSE 1993): the byte-oriented 64-bit block cipher
    the paper's encryption function is derived from.

    The full cipher is provided both as a pure implementation (for
    correctness tests and wall-clock benchmarks) and as a charged
    {!Block_cipher.t} whose exponential/logarithm tables and key schedule
    live in simulated memory — every byte encrypted costs table and key
    reads through the simulated cache, which is precisely the
    data-manipulation characteristic the paper studies.

    Structure per round (bytes [a..h], round keys [K1], [K2]):
    mixed XOR/ADD with [K1]; byte substitution through [exp]/[log] tables
    ([exp x = 45^x mod 257], with 256 encoded as 0); mixed ADD/XOR with
    [K2]; three levels of 2-PHT ([PHT (x, y) = (2x+y mod 256, x+y mod
    256)]) interleaved with the "Armenian shuffle" permutation.  The key
    schedule rotates each key byte left by 3 per round and adds the bias
    [B_i(j) = exp (exp (9i + j))]. *)

type key

(** [expand_key ?rounds k] derives the round keys from the 8-byte user key
    [k].  [rounds] defaults to 6, the value recommended by Massey for
    K-64.  Raises [Invalid_argument] if [k] is not 8 bytes or [rounds] is
    not within \[1, 12\]. *)
val expand_key : ?rounds:int -> string -> key

(** Pure in-place block transforms on 8 bytes at [off].  They allocate
    nothing: the block lives in locals from its load to its store, and
    the round keys are read from [key] directly. *)
val encrypt_block : key -> Bytes.t -> int -> unit

val decrypt_block : key -> Bytes.t -> int -> unit

(** ECB over a string whose length is a multiple of 8 (pure). *)
val encrypt_string : key -> string -> string

val decrypt_string : key -> string -> string

(** [encrypt_blocks key b ~off ~count] transforms [count] consecutive
    8-byte blocks in place, allocating nothing. *)
val encrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

val decrypt_blocks : key -> Bytes.t -> off:int -> count:int -> unit

(** The exponent/logarithm tables, exposed for tests and for the simplified
    variant. [exp_table.(128) = 0] encodes 256. *)
val exp_table : int array

val log_table : int array

(** [charged sim ?rounds ~key ()] instantiates the cipher on a simulated
    machine: allocates the tables and the expanded key in simulated memory
    and returns a charged {!Block_cipher.t}. *)
val charged : Ilp_memsim.Sim.t -> ?rounds:int -> key:string -> unit -> Block_cipher.t
