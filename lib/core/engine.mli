(** The integrated protocol engine: marshalling + encryption + checksum +
    TCP buffer transfer, in either of the paper's two implementation
    styles.

    One [t] is a configured data-manipulation stack bound to a simulated
    machine.  The send side produces a range filler suitable for the
    [fill] argument of [Ilp_tcp.Socket.send_message] (the whole message
    in one segment) and [Ilp_tcp.Socket.send_stream] (MSS-sized
    segments); the receive side provides the two manipulation callbacks
    matching [Ilp_tcp.Socket.rx_processing].

    {2 Wire format (figure 2 of the paper)}

    {v
    +-------------------+----------------------------+-----------+
    | length field (4B) | marshalled message (XDR)   | alignment |
    +-------------------+----------------------------+-----------+
    <------------------ encrypted, 8-byte aligned ---------------->
    v}

    The marshalled message is [prefix ^ payload]: the prefix holds the
    RPC header and XDR framing words (built by the stub compiler), the
    payload bytes come straight from application memory.

    {2 The two styles}

    [`Separate] (figure 3 left / figure 5 left): marshal into an
    intermediate buffer (read app memory, write buffer), encrypt in place
    (read, write), copy into the TCP ring (read, write); TCP then
    checksums the ring (read) — four read passes and three write passes
    over the message.  On receive: TCP checksums the staging area, then
    decryption in place, then unmarshal-and-copy to application memory.

    [`Ilp] (right columns): one loop reads application memory, marshals,
    encrypts and checksums in registers, and writes ciphertext into the
    TCP ring; the message parts are processed in the B, C, A order of
    {!Parts} so the encrypted length field can be completed last.  On
    receive one loop checksums, decrypts and unmarshals while copying
    from the staging area to application memory.

    {2 The host data path}

    Whatever the style, the host side has one single-copy path and one
    read call, {!read_plaintext}, which hands every TSDU to the caller in
    a pool buffer to decode in place and release.  On the [Native]
    backend the send gathers the message as an iovec scatter list
    straight into the TCP ring, and the receive decrypts each arriving
    segment into an engine-owned pool buffer at its final TSDU offset —
    the very buffer {!read_plaintext} then hands over (ownership
    transfer, no delivery copy).  The
    {!Ilp_fastpath.Memtraffic} ledger counts its copies: at most 2 per
    wire byte in ILP mode, 3 in separate mode, 1 on receive
    ([ilpbench mem --check]). *)

type mode = Ilp | Separate

(** Where the encrypted length field lives (section 5 of the paper):
    [Leading] is the measured system — the field precedes the message, so
    the ILP send loop must process parts in B, C, A order (two macro
    expansion sites: the bulk loop and a shared single-block tail);
    [Trailer] places it last ("trailers for data dependent fields could
    simplify ILP processing"), allowing one sequential expansion. *)
type header_style = Leading | Trailer

(** Where the receive-side manipulations run (section 3.2.3): [Early] is
    directly after the system copy, integrated with the checksum (the
    paper's choice — errors are known before TCP control processing);
    [Late] is close to the application, after TCP has checksummed and
    accepted the segment itself. *)
type rx_placement = Early | Late

(** How the data manipulations are executed.  [Simulated] (the default)
    realises every manipulation byte-at-a-time through the charged memory
    simulator — this is the paper's measurement apparatus.  [Native] runs
    the same manipulations through the un-simulated {!Ilp_fastpath}
    kernels — 64-bit loads and stores on real hardware — producing
    byte-identical wire output; its cost is wall-clock time (measured by
    [ilpbench wall]), so the simulated cycle counters are not meaningful
    for a native engine. *)
type backend = Simulated | Native of Ilp_fastpath.Cipher.t

(** The one host data path (see the preamble).  [Pooled] is this type's
    only constructor, and [create]'s [?data_path] argument has no
    effect.  Both remain only because the end-to-end benchmark's world
    builder ([bench/e2e/world.ml]) still passes [~data_path:Pooled]; they
    go once that caller drops it. *)
type data_path = Pooled

type t

(** [create sim ~cipher ~mode ()] builds a stack.

    [linkage] (default [Macro]) selects inlined versus function-call
    manipulation code (section 3.2.1).  [max_message] (default 2048)
    bounds the wire size of one message.  [coalesce_writes] (default
    false) applies the section 2.2 remedy — size every store to the
    exchange unit instead of the cipher's natural store width (the A2
    ablation). *)
val create :
  Ilp_memsim.Sim.t ->
  cipher:Ilp_cipher.Block_cipher.t ->
  mode:mode ->
  ?backend:backend ->
  ?linkage:Linkage.t ->
  ?max_message:int ->
  ?coalesce_writes:bool ->
  ?header_style:header_style ->
  ?rx_placement:rx_placement ->
  ?uniform_units:bool ->
  ?crc32:bool ->
  ?data_path:data_path ->
  ?pool:Ilp_fastpath.Pool.t ->
  unit ->
  t
(** [uniform_units] widens the marshalling unit to the cipher block
    (section 5's "uniform processing unit sizes").  [backend] (default
    [Simulated]) selects the execution substrate; a [Native] engine must
    be given the fast-path cipher matching [cipher] for the wire bytes to
    agree.  [crc32] (default false) appends an end-to-end CRC32 trailer
    word to the marshalled body (inside the encrypted length) and verifies
    it in {!read_plaintext} — closing the window where a corruption
    collides in the 16-bit Internet checksum.  The CRC is
    ordering-constrained (section 2.2), so its value is fixed at
    stream-build time like the length field; its serial fold cost is
    charged as one more fused stage in ILP mode and one more pass in
    separate mode.  Both endpoints must agree on this setting.

    [data_path] is ignored (see {!data_path}).  [pool] supplies a shared
    buffer pool (e.g. one pool for both ends of a connection), otherwise
    the engine creates its own. *)

val mode : t -> mode

(** Whether the end-to-end CRC32 trailer is enabled. *)
val crc32 : t -> bool

val header_style : t -> header_style
val rx_placement : t -> rx_placement

(** The engine's buffer pool (created or shared at {!create} time). *)
val pool : t -> Ilp_fastpath.Pool.t

val sim : t -> Ilp_memsim.Sim.t

(** [wire_len t ~prefix_len ~payload_len] is the encrypted on-the-wire
    length of such a message (8-byte aligned, length field included). *)
val wire_len : t -> prefix_len:int -> payload_len:int -> int

(** [max_payload t ~prefix_len] is the largest [payload_len] for which
    [wire_len t ~prefix_len ~payload_len] fits the engine's
    [max_message]: what one message can carry behind a [prefix_len]-byte
    prefix (negative when not even an empty payload fits).  It is a
    multiple of 4 whenever [prefix_len] is, so an XDR opaque of up to
    that many bytes fits together with its padding. *)
val max_payload : t -> prefix_len:int -> int

(** A piece of the marshalled message body: bytes generated in registers
    by the stub code, or a run of application memory the ILP loop reads in
    place.  This is the interface the ILP-extended stub compiler
    ([Ilp_codec.Stub_ilp]) produces. *)
type body_segment = Seg_gen of string | Seg_app of { addr : int; len : int }

(** A staged message, for [Ilp_tcp.Socket.send_message] and
    [send_stream]: [fill_range mem ~dst ~off ~len] writes wire bytes
    [off, off+len) of the message at [dst] — one fused
    marshal+encrypt+checksum pass over just that range in ILP mode
    (returning its positional checksum accumulator), the separate passes
    over the range otherwise (returning [None] so TCP checksums the ring
    itself).  The whole message is the range [off = 0, len =
    stream_len].  [off] and [len] must be multiples of [seg_unit]
    (ranges may not split a cipher block); pass [seg_unit] to
    [send_stream] and the segmentation satisfies this automatically.
    Filling ranges in any order produces exactly the bytes of the
    whole-message fill.  Every fill counts in [engine.stream_fills]; a
    fill at offset 0 also counts one [engine.sends]. *)
type prepared_stream = {
  stream_len : int;  (** wire length of the whole message *)
  seg_unit : int;  (** alignment every range must respect *)
  fill_range :
    Ilp_memsim.Mem.t ->
    dst:int ->
    off:int ->
    len:int ->
    Ilp_checksum.Internet.acc option;
}

(** [prepare_stream_segments t body] stages a message with an arbitrary
    interleaving of generated and memory-resident runs.  The encryption
    length field, CRC32 trailer and alignment are added per the engine's
    configuration.  Raises [Invalid_argument] when the message exceeds
    [max_message] (see {!max_payload}). *)
val prepare_stream_segments : t -> body_segment list -> prepared_stream

(** Receive-side manipulation for [Rx_separate]: decrypt the staged
    segment in place and unmarshal-copy the plaintext to the application
    area at byte offset [dst_off] (the segment's position within the TSDU
    being reassembled; 0 for a whole message).  [Error] — a length the
    stack cannot process (not a cipher-block multiple, over
    [max_message], or a reassembly offset that would overflow the
    application area) — rejects the segment; TCP drops and counts it. *)
val rx_separate :
  t ->
  Ilp_memsim.Mem.t ->
  src:int ->
  dst_off:int ->
  len:int ->
  (unit, string) result

(** Receive-side manipulation for [Rx_integrated]: one fused pass; the
    plaintext lands in the application area at [dst_off] and the
    ciphertext checksum accumulator is returned for TCP's accept/reject
    decision.  [Error] as for {!rx_separate}, decided before the loop
    runs. *)
val rx_integrated :
  t ->
  Ilp_memsim.Mem.t ->
  src:int ->
  dst_off:int ->
  len:int ->
  (Ilp_checksum.Internet.acc, string) result

(** Deferred fused decrypt+unmarshal for the [Late] placement (no
    checksum tap: TCP has already verified the segment). *)
val rx_late :
  t ->
  Ilp_memsim.Mem.t ->
  src:int ->
  dst_off:int ->
  len:int ->
  (unit, string) result

(** How a TCP socket should be wired for this engine's mode and
    placement: an integrated handler that returns the payload checksum,
    or a deferred handler run after TCP's own checksum pass. *)
type rx_style =
  | Rx_integrated_style of
      (Ilp_memsim.Mem.t ->
      src:int ->
      dst_off:int ->
      len:int ->
      (Ilp_checksum.Internet.acc, string) result)
  | Rx_deferred_style of
      (Ilp_memsim.Mem.t ->
      src:int ->
      dst_off:int ->
      len:int ->
      (unit, string) result)

val rx_style : t -> rx_style

(** Where receive-side plaintext is placed ([length field ^ marshalled
    message ^ alignment]). *)
val app_rx_base : t -> int

(** Decode the plaintext at {!app_rx_base}: a charged read of the length
    field and prefix words, then the TSDU lands in a buffer acquired from
    the engine's pool — [Ok (buf, len)] where the TSDU occupies
    [buf.[0..len-1]] (the buffer's capacity is its size class, possibly
    larger), for the caller's stub to decode in place.  On the native
    pooled path the returned buffer {e is} the engine's rx placement
    buffer — the fused receive decrypted every segment directly into it
    at its final TSDU offset, so delivery is an ownership transfer with
    no copy at all.  The caller must hand the buffer back with
    {!release_plaintext} on every path, including after decode errors.
    [Error] when the decrypted length field is implausible — the
    fingerprint of a checksum-colliding corruption that survived TCP's
    verdict — or, with [crc32] enabled, when the recomputed CRC32
    trailer does not match. *)
val read_plaintext : t -> len:int -> (Bytes.t * int, string) result

(** Return a buffer obtained from {!read_plaintext} to the pool. *)
val release_plaintext : t -> Bytes.t -> unit

(** Tear down the engine's host-side resources: returns the native fast
    path's staging buffer and any in-flight rx placement buffer to the
    pool (idempotent; a no-op for simulated backends).  Required for
    pool-balance accounting — [Pool.outstanding (pool t) = 0] after all
    TSDUs are released and all engines destroyed. *)
val destroy : t -> unit
