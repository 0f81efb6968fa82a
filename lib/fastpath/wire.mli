(** The native send/receive data movement, in both of the paper's styles.

    The {e separate} functions reproduce the non-ILP stack's four memory
    traversals — marshal copy, encrypt pass, TCP ring copy, checksum pass —
    each touching every byte of the message.  The {e ILP} functions fuse
    the same manipulations word by word, as the paper's loop does: the
    receive loads each 64-bit ciphertext block once, folds it into the
    checksum, decrypts it in registers and stores it once
    ({!Cipher.decrypt_fold}); the send gathers the message in L1-sized
    chunks and seals each chunk with one encrypt-and-fold pass
    ({!Cipher.encrypt_fold}).  Both styles run the same cipher step, and
    produce byte-identical wire data and the same Internet checksum;
    only the wall-clock cost differs, which is what [ilpbench wall]
    measures.

    The sends take the stub compiler's description of the message, an
    {!Ilp_codec.Stub_ilp.segment} array, and assemble a window of it
    directly at the destination — the single-copy path: no intermediate
    rendering of the plaintext.

    Every function feeds the {!Memtraffic} ledger (bytes copied, bytes
    transformed in place, bytes checksummed), so [ilpbench mem] can count
    the traversal structure it claims.  The ledger counts the bytes each
    layer manipulates, not passes over memory: both receives are charged
    a checksum read, a marshal copy and a cipher transform per byte.

    [len] must be a multiple of the cipher block (8 bytes), and so must a
    send's window offset; offsets and lengths are bounds-checked on
    entry. *)

type t

(** [create ~cipher ?pool ~max_len ()] builds a fast path instance.
    [max_len] bounds the message length of the separate-path sends (it
    sizes the staging buffer that stands in for the protocol stack's
    intermediate buffer).  The staging buffer is drawn {e lazily} — only
    when a separate-path send first needs it — from [pool] when given,
    and returned to the pool by {!release} (engine teardown). *)
val create : cipher:Cipher.t -> ?pool:Pool.t -> max_len:int -> unit -> t

val cipher : t -> Cipher.t

(** Return the staging buffer (if ever drawn) to the pool.  Idempotent;
    a later separate-path send simply draws a fresh one. *)
val release : t -> unit

(** [recv_separate t ~src ~src_off ~len ~dst ~dst_off] runs the separate
    receive: checksum [src], decrypt [src] in place, word-copy the
    plaintext to [dst] (the application buffer).  [src] is consumed, as in
    the real stack where the staging buffer is decrypted in place. *)
val recv_separate :
  t -> src:Bytes.t -> src_off:int -> len:int -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc

(** [recv_ilp t ~src ~src_off ~len ~dst ~dst_off] fuses the receive into
    one pass over the words: each ciphertext block is loaded from [src]
    once, folded into the checksum, decrypted in registers and stored at
    [dst] once.  [src] is left intact. *)
val recv_ilp :
  t -> src:Bytes.t -> src_off:int -> len:int -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc

(** {2 Scatter-gather (single-copy) sends} *)

(** [sendv_ilp t ~segs ~src ~off ~len ~dst ~dst_off] — the fused
    scatter-gather send of bytes [off, off+len) of the message [segs]
    describes: the concatenation of its runs, a [Gen s] run being [s]
    and an [App { addr; len }] run [src.[addr..addr+len-1]] (application
    memory read in place).  Segment boundaries are arbitrary.  The window
    is gathered directly at [dst+dst_off] in 4 KiB chunks, and each chunk
    is sealed while it is in L1 by one pass that encrypts each block in
    registers and folds it into the checksum: the message's only copy is
    the gather itself.  The wire bytes are the cipher's ECB encryption of
    the window, and the result is their checksum.

    Raises [Invalid_argument] when the window is not inside the message,
    [off] or [len] is not a multiple of 8, an [App] run (in the window or
    not) is not inside [src], or the destination is not inside [dst]. *)
val sendv_ilp :
  t -> segs:Ilp_codec.Stub_ilp.segment array -> src:Bytes.t -> off:int ->
  len:int -> dst:Bytes.t -> dst_off:int -> Ilp_checksum.Internet.acc

(** [sendv_separate] — the four-pass equivalent of {!sendv_ilp}: gather
    the window into the staging buffer, encrypt in place, copy to [dst],
    checksum [dst].  Wire-identical to {!sendv_ilp}; [len] must also be
    at most [max_len]. *)
val sendv_separate :
  t -> segs:Ilp_codec.Stub_ilp.segment array -> src:Bytes.t -> off:int ->
  len:int -> dst:Bytes.t -> dst_off:int -> Ilp_checksum.Internet.acc
