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
    [tcp_output]/[tcp_input]; the pure forms serve tests and the wire. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** sequence number (kept < 2^32; this stack does not wrap) *)
  ack : int;
  flags : int;
      (** the 12 bits below the data offset: the control bits and the
          reserved bits, kept as received, so that {!checksum} of a
          decoded header covers the header word that arrived *)
  window : int;
  checksum : int;
  urgent : int;
  sack : (int * int) list;
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

(** [sealed ... ~payload_acc ~payload_len] is [make] of the same fields
    with the urgent pointer 0 and the checksum field set for a payload of
    [payload_len] bytes that folds to [payload_acc]: the header a sender
    transmits, built as one record. *)
val sealed :
  seq:int ->
  ack:int ->
  flags:int ->
  window:int ->
  sack:(int * int) list ->
  src_port:int ->
  dst_port:int ->
  payload_acc:Ilp_checksum.Internet.acc ->
  payload_len:int ->
  t

(** Charged header I/O on simulated memory. *)
val write_mem : Ilp_memsim.Mem.t -> pos:int -> t -> unit

val read_mem : Ilp_memsim.Mem.t -> pos:int -> t
(** Bare 20-byte read; any option area is left unread ([sack = []]). *)

(** Result of a charged parse that also walks the option area. *)
type parsed = {
  hdr : t;
  hdr_len : int;  (** bytes of header actually described by the data offset *)
  options_ok : bool;
      (** false when the data offset or option bytes are not the one
          canonical SACK layout — the segment is structurally hostile and
          must be dropped *)
}

val read_mem_v : Ilp_memsim.Mem.t -> pos:int -> total:int -> parsed
(** [read_mem_v mem ~pos ~total] reads the base header and, when the data
    offset claims options and [total] covers them, the canonical SACK
    option area. *)

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
