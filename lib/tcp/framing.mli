(** The v2 ("Reverso") stream framing: a cleartext [seg_unit]-sized
    prelude in front of every streamed TSDU carrying the TSDU's wire
    length, so the receiver knows each segment's final placement offset
    — and the TSDU's extent — before any decryption runs.  This is the
    wire-format half of the single-copy receive path: with the extent
    known up front, the fused rx pass can decrypt out-of-order segments
    straight into the placement buffer at their final TSDU offset
    instead of staging them for a later re-copy.

    Framing is negotiated per connection by the RPC layer (a flag word
    on the control request); an unframed connection's wire bytes are
    untouched. *)

(** First prelude word for a [prelude_len]-byte prelude: the magic tag
    with the length in the low byte. *)
val word0 : prelude_len:int -> int

(** [parse_word0 w] is [Some prelude_len] when [w] is a valid framing
    word ([None] otherwise). *)
val parse_word0 : int -> int option

(** [framed_stream ~seg_unit ~stream_len ~checksummed ~fill_range] wraps
    an engine range filler (its TSDU [stream_len] bytes long, every range
    [seg_unit]-aligned) into the framed stream for
    [Socket.send_stream]: [(total_len, fill)] where
    [total_len = seg_unit + stream_len] and [fill] writes the prelude
    (charged stores) ahead of the engine's bytes.  [checksummed] marks a
    [fill_range] that returns positional checksum accumulators (ILP
    mode); the prelude's accumulator is then folded in positionally. *)
val framed_stream :
  seg_unit:int ->
  stream_len:int ->
  checksummed:bool ->
  fill_range:
    (Ilp_memsim.Mem.t ->
    dst:int ->
    off:int ->
    len:int ->
    Ilp_checksum.Internet.acc option) ->
  int
  * (Ilp_memsim.Mem.t ->
    dst:int ->
    off:int ->
    len:int ->
    Ilp_checksum.Internet.acc option)
