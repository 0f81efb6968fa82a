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

(** [encapsulate t payload] is the wire datagram payload: header (with a
    correct checksum) followed by [payload]. *)
val encapsulate : t -> string -> string

(** [decapsulate wire] validates version, header length, total length and
    header checksum, returning the header and the payload. *)
val decapsulate : string -> (t * string, string) result
