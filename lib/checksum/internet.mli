(** RFC 1071 Internet checksum (the TCP/UDP checksum).

    Two forms are provided, matching the two implementation styles measured
    in the paper.  The {e pure} form folds over bytes already held in
    registers — this is what runs inside the fused ILP loop, where the data
    was just produced by the previous manipulation and costs no memory
    access.  The {e charged} form walks simulated memory in 2-byte units —
    this is the separate checksum pass of the non-ILP [tcp_output].

    The checksum is not ordering-constrained: blocks may be summed in any
    order provided each block's byte-parity position is respected, which is
    exactly the property the paper's part-B/C/A send processing relies
    on. *)

type acc
(** A partial one's-complement sum plus the parity of the number of bytes
    folded so far (odd-length blocks make the following byte a low-order
    byte). *)

val empty : acc

(** [add_bytes acc b ~off ~len] folds [len] bytes of [b] starting at
    [off]. *)
val add_bytes : acc -> Bytes.t -> off:int -> len:int -> acc

(** [add_bytes_unsafe acc b ~off ~len] is [add_bytes] without the bounds
    check.  The word loop folds eight bytes per 64-bit load (four 16-bit
    lanes accumulated in 32-bit halves, folded by {!add_lanes}), so this
    is the form the native fast path's separate checksum passes use.  The
    caller must guarantee [0 <= off], [0 <= len] and
    [off + len <= Bytes.length b]. *)
val add_bytes_unsafe : acc -> Bytes.t -> off:int -> len:int -> acc

(** [add_lanes acc s] folds a lane sum [s] into [acc], at either parity.
    A lane sum is what a word loop keeps in an [int]: for each 64-bit
    word [w] loaded in native byte order, [Int64.to_int (Int64.logand w
    0xFFFF_FFFFL) + Int64.to_int (Int64.shift_right_logical w 32)], summed
    over at most 2^16 words; a longer loop keeps its sum small with an
    end-around carry every 2^16 words, [s := (s land 0xffff_ffff) + (s
    lsr 32)].  {!add_bytes_unsafe} folds its word loop through here, and
    so do the fused loops of the native fast path.  Each writes the
    per-word add and the carry inline: an [int64] passed to a function in
    another module is boxed, and a call inside a loop spills the loop's
    cursors to the stack. *)
val add_lanes : acc -> int -> acc

val add_string : acc -> string -> acc

(** [add_u16 acc v] folds one aligned 16-bit big-endian word. *)
val add_u16 : acc -> int -> acc

(** [combine a b ~len_b] appends a sum [b] computed over [len_b] bytes to
    [a]; equivalent to folding [b]'s bytes after [a]'s. *)
val combine : acc -> acc -> len_b:int -> acc

(** One's-complement fold and complement: the 16-bit value stored in the
    TCP header. *)
val finish : acc -> int

(** [checksum_string s] is the checksum of a whole string. *)
val checksum_string : string -> int

(** [ops ~len] is the ALU cost model for summing [len] register-resident
    bytes (one add plus one carry fold per 16-bit word). *)
val ops : len:int -> int

(** [checksum_mem mem ~pos ~len ~acc] walks simulated memory in 2-byte
    units, charging reads and compute, and returns the extended
    accumulator.  [pos] need not be even but byte-parity of the walk starts
    even. *)
val checksum_mem : Ilp_memsim.Mem.t -> pos:int -> len:int -> acc:acc -> acc

(** [verify_string s] is [true] iff the data including its checksum field
    sums to [0xffff] (i.e. to zero in one's complement). *)
val verify_string : string -> bool
