(** The stub compiler: from an ASN.1-lite description to marshalling code.

    This plays the role of MAVROS in the paper: given a message type, it
    produces the (un)marshalling routines the application calls.  The
    routines work on the XDR representation produced by {!Xdr}.  It is
    the reference the send path's cursor ({!Stub_ilp}) and the RPC's
    in-place decoders are held to. *)

type t

(** [compile ty] builds the stubs for [ty]. *)
val compile : Asn1.ty -> t

(** [marshal t v] type-checks [v] against the description and returns its
    XDR encoding.  Raises [Invalid_argument] when the value does not
    inhabit the type. *)
val marshal : t -> Asn1.value -> string

(** [unmarshal t s] decodes a complete message; raises {!Xdr.Dec.Error} on
    malformed input (including trailing bytes). *)
val unmarshal : t -> string -> Asn1.value
