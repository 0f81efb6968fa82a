(** The TCP header of the paper's user-level TCP.

    "TCP header options are avoided to ensure fixed-size headers" — every
    {e data} segment carries exactly 20 bytes of header, so the ILP loop
    always knows where the payload starts (the paper's precondition that
    the header size be known before entering the loop).  SACK (RFC 2018)
    rides exclusively on pure acknowledgements, which never enter the ILP
    loop: the option area is the one canonical padded layout
    [NOP NOP SACK(len=2+8n)] with up to {!max_sack_blocks} blocks, and
    anything else is a structural parse error the receive path drops.

    Charged encode/decode move the header through simulated memory in
    2- and 4-byte units, modelling the header processing of
    [tcp_output]/[tcp_input]; the pure forms serve tests and the wire.
    Neither charged form allocates: {!read_mem} fills a record its
    caller owns (a socket keeps one per arriving datagram), and
    {!seal_mem} writes an outgoing header from its fields. *)

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;  (** sequence number (kept < 2^32; this stack does not wrap) *)
  mutable ack : int;
  mutable flags : int;
      (** the 12 bits below the data offset: the control bits and the
          reserved bits, kept as received, so that {!checksum} of a
          decoded header covers the header word that arrived *)
  mutable window : int;
  mutable checksum : int;
  mutable urgent : int;
  mutable sack : (int * int) list;
      (** SACK blocks [(left, right)] — [left] inclusive, [right]
          exclusive, sequence-number space.  Empty for every data
          segment; at most {!max_sack_blocks} on a pure ack. *)
}

val size : int
(** 20 bytes: the bare header, and the full header of every data
    segment. *)

val max_sack_blocks : int
(** 3. *)

val wire_size : t -> int
(** [size] plus the canonical option area ([4 + 8n] bytes when [n] SACK
    blocks are attached, 0 otherwise). *)

val max_wire_size : int
(** [wire_size] of a header carrying {!max_sack_blocks} blocks (48). *)

(** Flag bits, as in RFC 793. *)
val fin : int

val syn : int
val rst : int
val psh : int
val ack_flag : int

val has : t -> int -> bool

val make :
  ?seq:int ->
  ?ack:int ->
  ?flags:int ->
  ?window:int ->
  ?checksum:int ->
  ?urgent:int ->
  ?sack:(int * int) list ->
  src_port:int ->
  dst_port:int ->
  unit ->
  t

(** [seal_mem mem ~pos ~seq ~ack ~flags ~window ~sack ~src_port ~dst_port
    ~payload_acc ~payload_len] writes, charged, the header a sender
    transmits at [pos]: {!make}'s fields (the window saturated at 16
    bits, at most {!max_sack_blocks} blocks kept) with the urgent pointer
    0 and the checksum field set for a payload of [payload_len] bytes
    that folds to [payload_acc].  Returns the header's length.  This is
    the one header writer; it allocates nothing. *)
val seal_mem :
  Ilp_memsim.Mem.t ->
  pos:int ->
  seq:int ->
  ack:int ->
  flags:int ->
  window:int ->
  sack:(int * int) list ->
  src_port:int ->
  dst_port:int ->
  payload_acc:Ilp_checksum.Internet.acc ->
  payload_len:int ->
  int

(** [seal_bytes b ~off ...] is {!seal_mem} into [b] at [off], uncharged:
    the same bytes, for a reset, which a dead or absent connection sends
    without running [tcp_output]. *)
val seal_bytes :
  Bytes.t ->
  off:int ->
  seq:int ->
  ack:int ->
  flags:int ->
  window:int ->
  sack:(int * int) list ->
  src_port:int ->
  dst_port:int ->
  payload_acc:Ilp_checksum.Internet.acc ->
  payload_len:int ->
  int

(** [read_mem mem ~pos ~total h] parses, charged, the header at [pos]
    into [h] and returns its length: the base header, and, when the data
    offset claims options and [total] bytes cover them, the canonical
    SACK option area.  A data offset or option bytes that are not the
    one canonical layout return {!bad_options} — the segment is
    structurally hostile and must be dropped; [h] then holds the base
    header without blocks.  [~total:size] is the bare 20-byte read.
    Allocates nothing but the block list of a header that carries
    blocks. *)
val read_mem : Ilp_memsim.Mem.t -> pos:int -> total:int -> t -> int

(** -1. *)
val bad_options : int

(** Pure forms (the wire representation). *)
val to_string : t -> string

(** Total decode: [Error] when fewer than {!size} bytes remain at [pos],
    or when the data offset claims an option area that is truncated or
    not the canonical SACK layout.  A hostile wire can truncate any
    segment, so the receive path must be able to reject a short header
    without raising. *)
val of_string : string -> pos:int -> (t, string) result

(** Raising convenience wrapper for tests; [Invalid_argument] on a
    truncated header. *)
val of_string_exn : string -> pos:int -> t

(** [pseudo_acc t ~payload_len] starts an Internet-checksum accumulator
    with the pseudo-header (protocol 6, ports, segment length — header
    {e including options} plus payload), mirroring "TCP ... calculates
    the checksum over the pseudo header and the data". *)
val pseudo_acc : t -> payload_len:int -> Ilp_checksum.Internet.acc

(** [checksum t ~payload_acc ~payload_len] is the header checksum field
    value for a segment whose payload folds to [payload_acc]. *)
val checksum : t -> payload_acc:Ilp_checksum.Internet.acc -> payload_len:int -> int
