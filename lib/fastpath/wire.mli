(** The native send/receive data movement, in both of the paper's styles.

    The {e separate} functions reproduce the non-ILP stack's four memory
    traversals — marshal copy, encrypt pass, TCP ring copy, checksum pass —
    each touching every byte of the message.  The {e ILP} functions fuse
    the same manipulations into one traversal: each cache-resident chunk is
    copied, encrypted and checksummed before the loop moves on, so the
    message crosses the memory system once.  Both produce byte-identical
    wire data and the same Internet checksum; only the wall-clock cost
    differs, which is what [ilpbench wall] measures.

    The [sendv_*] variants take the marshal output as an iovec-style
    scatter list and assemble it directly at the destination — the
    single-copy path: no intermediate rendering of the plaintext.

    Every function feeds the {!Memtraffic} ledger (bytes copied, bytes
    transformed in place, bytes checksummed), so [ilpbench mem] can count
    the traversal structure it claims.

    [len] must be a multiple of the cipher block (8 bytes); offsets and
    lengths are bounds-checked on entry. *)

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

(** [send_separate t ~src ~src_off ~len ~dst ~dst_off] runs the four-pass
    send: word-copy [src] into the staging buffer (marshal), encrypt the
    staging buffer in place, word-copy it into [dst] (the ring), then
    checksum [dst].  Returns the payload checksum accumulator. *)
val send_separate :
  t -> src:Bytes.t -> src_off:int -> len:int -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc

(** [send_ilp t ~src ~src_off ~len ~dst ~dst_off] runs the fused send: one
    pass over the message in cache-sized chunks, each chunk copied into
    [dst], encrypted there and folded into the checksum while still
    resident.  Same wire bytes and checksum as [send_separate]. *)
val send_ilp :
  t -> src:Bytes.t -> src_off:int -> len:int -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc

(** [recv_separate t ~src ~src_off ~len ~dst ~dst_off] runs the separate
    receive: checksum [src], decrypt [src] in place, word-copy the
    plaintext to [dst] (the application buffer).  [src] is consumed, as in
    the real stack where the staging buffer is decrypted in place. *)
val recv_separate :
  t -> src:Bytes.t -> src_off:int -> len:int -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc

(** [recv_ilp t ~src ~src_off ~len ~dst ~dst_off] fuses the receive:
    per chunk, fold the ciphertext into the checksum, copy it to [dst] and
    decrypt it there.  [src] is left intact. *)
val recv_ilp :
  t -> src:Bytes.t -> src_off:int -> len:int -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc

(** {2 Scatter-gather (single-copy) sends} *)

(** One run of an outgoing message: bytes in a buffer (e.g. application
    memory read in place) or an immediate string (stub-generated header
    runs).  Segment boundaries are arbitrary. *)
type iovec =
  | Io_bytes of { buf : Bytes.t; off : int; len : int }
  | Io_string of { s : string; off : int; len : int }

val iovec_len : iovec list -> int

(** [sendv_ilp t ~iov ~dst ~dst_off] — the fused scatter-gather send:
    gathers the iovec list directly at [dst] in cache-sized chunks, each
    chunk encrypted and checksummed while resident.  The message's only
    copy is the gather itself.  The total length must be a multiple of 8.
    Byte- and checksum-identical to rendering [iov] contiguously and
    calling {!send_ilp}. *)
val sendv_ilp :
  t -> iov:iovec list -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc

(** [sendv_separate t ~iov ~dst ~dst_off] — the four-pass equivalent:
    gather into the staging buffer, encrypt in place, copy to [dst],
    checksum [dst].  Wire-identical to {!sendv_ilp}. *)
val sendv_separate :
  t -> iov:iovec list -> dst:Bytes.t -> dst_off:int ->
  Ilp_checksum.Internet.acc
