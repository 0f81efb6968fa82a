(** Minimal IPv4: the layer the paper's kernel part hands TCP segments to
    ("for sending data, the main task of the kernel part is to pass the
    messages received from the user-level TCP to IP").

    Fixed 20-byte headers (no options), the RFC 1071 header checksum, and
    no fragmentation — the stack keeps one TSDU in one TPDU in one
    datagram, as the ALF design demands; a too-big packet is a send-time
    error, not a fragmentation event. *)

type t = {
  tos : int;
  total_len : int;  (** header + payload, bytes *)
  ident : int;
  ttl : int;
  protocol : int;
  src : int;  (** 32-bit address *)
  dst : int;
}

val header_len : int
(** 20 bytes. *)

val protocol_tcp : int
(** 6 *)

(** The loopback addresses used by the simulated hosts. *)
val loopback : int

(** A header with TOS 0 and TTL 64; [ident] defaults to 0 and
    [protocol] to {!protocol_tcp}. *)
val make :
  ?ident:int -> ?protocol:int -> src:int -> dst:int -> payload_len:int ->
  unit -> t

(** [write_header b ~ident ~src ~dst ~payload_len] writes the 20 header
    bytes of [make ~ident ~src ~dst ~payload_len ()], checksum included,
    into bytes 0-19 of [b], without building that record: a sender
    allocates the whole datagram once and puts the segment after the
    header itself. *)
val write_header : Bytes.t -> ident:int -> src:int -> dst:int -> payload_len:int -> unit

(** [encapsulate t payload] is the wire datagram: header (with a correct
    checksum) followed by [payload], built in one allocation.
    [Invalid_argument] unless [t.total_len] is [header_len] plus the
    payload's length. *)
val encapsulate : t -> string -> string

(** [decapsulate wire] validates version, header length, total length and
    header checksum in place and returns the header alone: the payload is
    [wire]'s bytes from {!header_len} on, which a receiver reads where
    they are (one that needs a string of its own takes a [String.sub]).
    Total: any string gives [Ok] or [Error], never an exception. *)
val decapsulate : string -> (t, string) result

(** [protocol wire] is the protocol number of the header {!decapsulate}
    would return, or -1 where it would return [Error]; it makes the same
    checks and allocates nothing. *)
val protocol : string -> int
