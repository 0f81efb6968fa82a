(** The kernel-part datagram service.

    The paper's user-level TCP rides on a kernel component with "similar
    functionality as UDP without checksum": it carries TCP segments between
    user processes and demultiplexes arriving packets to the right
    connection.  A datagram is a source/destination port pair and the wire
    bytes of a whole TPDU. *)

type t = { src_port : int; dst_port : int; payload : string }

val create : src_port:int -> dst_port:int -> payload:string -> t

(** Payload length in bytes. *)
val length : t -> int
