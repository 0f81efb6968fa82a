(** The file-transfer RPC messages (section 3.1 of the paper).

    "A client sends a request describing the file to receive, the number
    of copies of this file to be received, and the maximum length of bytes
    to receive within a single reply message.  After receiving a file
    transmission request, the server segments the file into smaller units
    and sends these units as a set of reply messages back to the client."

    Both formats are described in the ASN.1-lite algebra and compiled with
    the stub compiler, as the paper does with MAVROS.  The reply keeps its
    bulk data as the {e last} field so that everything before the payload
    is a fixed small prefix of XDR words — the engine needs the payload
    position to be known before the ILP loop starts (the header-size
    precondition of section 2.2). *)

type request = {
  file_name : string;
  copies : int;
  max_reply : int;
  req_id : int;
      (** idempotency id (0 = none): the server's at-most-once dedup
          cache is keyed on it, so a retransmitted request is answered
          from the cache instead of re-executed *)
  start_copy : int;  (** resume point: first copy still wanted *)
  start_offset : int;  (** resume point: first byte of that copy *)
}

(** Build a request; the fault-model fields default to zero, i.e. a
    plain from-the-start transfer. *)
val request :
  ?req_id:int ->
  ?start_copy:int ->
  ?start_offset:int ->
  file_name:string ->
  copies:int ->
  max_reply:int ->
  unit ->
  request

(** A request with no idempotency id and no resume point marshals in the
    original three-field form — byte-identical to the pre-fault-model
    wire encoding. *)
val request_is_v1 : request -> bool

(** The client's resume handshake: "does file [p_file_name]'s prefix
    [0, p_offset) fold to CRC32 [p_crc]?"  The reply is a data-less
    standard reply header — [Ok] verifies the prefix, [Refused] rejects
    it, [Not_found] as usual. *)
type probe = { p_file_name : string; p_offset : int; p_crc : int; p_req_id : int }

(** Every inbound control message is one of the request forms or a
    probe; they are distinguished on the wire by the number of integer
    words after the file name (2, 5 and 3 respectively; 6 and 4 for the
    flagged forms), so the v1 request encoding carries no tag. *)
type ctrl = Request of request | Probe of probe

(** Capability flag, bit 0 of the flagged control forms' trailing word:
    the client receives v2 ("Reverso") framed streams, so the server
    must prefix every reply TSDU on this connection with the
    {!Ilp_tcp.Framing} prelude. *)
val flag_rx_framing : int

(** [Busy] is the load-shedding reply: the request was admitted to the
    wire but refused service under an exceeded budget; the client should
    back off and retry.  [Refused] is permanent (e.g. a request whose
    reply could never fit the server's per-connection budget). *)
type status = Ok | Not_found | Refused | Busy

(** Mutable so that a client decodes every reply into one header it owns
    ({!decode_reply_view}). *)
type reply_header = {
  mutable status : status;
  mutable copy : int;  (** which copy of the file this segment belongs to *)
  mutable file_offset : int;
  mutable total_len : int;  (** full file length *)
  mutable data_len : int;
}

(** Marshal a request (the whole message — requests carry no bulk data).
    Result is a multiple of 4 bytes.  Picks the v1 or v2 form by
    {!request_is_v1}. *)
val encode_request : request -> string

(** Marshal a CRC probe.  Result is a multiple of 4 bytes. *)
val encode_probe : probe -> string

(** {2 ILP-extended stubs (section 2.1)}

    The same message descriptions compiled by [Ilp_codec.Stub_ilp]: the
    control fields become generated byte runs and the reply's data field
    stays in application memory for the fused loop.  Each builder pushes
    the message's fields through its compiled stub's cursor and returns
    the stub, laid out: its {!Ilp_codec.Stub_ilp.segments} feed
    [Ilp_core.Engine.prepare_stream_segments] as they are, until the next
    message of the same form is built. *)

(** [flags] (default 0) selects the flagged control forms: a nonzero
    value is appended as a trailing capability word (see
    {!flag_rx_framing}).  A flagged request always marshals the full v2
    field set — word-count dispatch leaves no flagged v1 form. *)
val request_segments : ?flags:int -> request -> Ilp_codec.Stub_ilp.t

val probe_segments : ?flags:int -> probe -> Ilp_codec.Stub_ilp.t

(** [reply_segments hdr ~payload_addr] — [hdr.data_len] bytes are taken
    from [payload_addr].  Lays out a reply without allocating anything
    but its segments (the [Gen] run of its header words and the [App]
    of its data).  A data-less reply's {!Ilp_codec.Stub_ilp.total_len}
    is the header's length, the bytes every reply carries ahead of its
    data. *)
val reply_segments : reply_header -> payload_addr:int -> Ilp_codec.Stub_ilp.t

(** {2 Decoders}

    Every decoder reads a marshalled body and no byte outside it: the
    span {!Ilp_core.Engine.read_plaintext} hands over, with the length
    field, the CRC32 trailer and the alignment already checked and
    stripped by the engine.  No decoder reads a length field or knows the
    header style or the CRC setting.  Each is total: malformed input,
    bytes left over after the last field included, is an [Error]
    carrying {!Ilp_codec.Xdr.Dec}'s message, with positions counted from
    the body's start.  The string decoders go through the
    generic {!Ilp_codec.Stub} and are the reference the in-place
    decoders are held to. *)

(** [decode_request body] parses a v1 request body. *)
val decode_request : string -> (request, string) result

(** [decode_reply body] parses a reply body and returns the header and
    the payload bytes.  A payload whose length, with its XDR padding,
    runs past the body is an [Error]. *)
val decode_reply : string -> (reply_header * string, string) result

(** {2 In-place decoders (single-copy receive path)}

    The same parses over the body [buf.[off..off+len-1]] of a pooled TSDU
    buffer, through the same {!Ilp_codec.Xdr.Dec} cursor (so the same
    bounds discipline and error strings) but with no copy of the bulk
    data.  A span outside [buf] is an [Error]. *)

(** [decode_ctrl_bytes buf ~off ~len] parses any inbound control message
    (either request form, or a CRC probe), dispatching on the count of
    integer words after the file name.  The second component is the
    capability flag word (0 for the unflagged forms). *)
val decode_ctrl_bytes : Bytes.t -> off:int -> len:int -> (ctrl * int, string) result

(** [decode_reply_view d hdr buf ~off ~len] is {!decode_reply} with the
    payload left in [buf], decoded through the caller's cursor [d]
    (re-pointed at the body) into the caller's header [hdr]: on [Ok ()]
    [hdr] holds the header and the payload is [hdr.data_len] bytes at
    {!Ilp_codec.Xdr.Dec.opaque_off} [d], inside the body.  It allocates
    nothing on success; on [Error] [hdr] is unspecified.  The caller
    must consume the payload before releasing the buffer to the pool. *)
val decode_reply_view :
  Ilp_codec.Xdr.Dec.t ->
  reply_header ->
  Bytes.t ->
  off:int ->
  len:int ->
  (unit, string) result
