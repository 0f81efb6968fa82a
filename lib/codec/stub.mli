(** The stub compiler: from an ASN.1-lite description to marshalling code.

    This plays the role of MAVROS in the paper: given a message type, it
    produces the (un)marshalling routines the application calls.  The
    routines work on the XDR representation produced by {!Xdr}. *)

type t

(** [compile ty] builds the stubs for [ty]. *)
val compile : Asn1.ty -> t

val ty : t -> Asn1.ty

(** [marshal t v] type-checks [v] against the description and returns its
    XDR encoding.  Raises [Invalid_argument] when the value does not
    inhabit the type. *)
val marshal : t -> Asn1.value -> string

(** [encode enc ty v] appends the encoding of [v] to [enc] without
    checking it: for a caller that has already run {!Asn1.check} on [v]
    (the ILP stub layout checks each immediate field once, then encodes
    it into its generated run). *)
val encode : Xdr.Enc.t -> Asn1.ty -> Asn1.value -> unit

(** [unmarshal t s] decodes a complete message; raises {!Xdr.Dec.Error} on
    malformed input (including trailing bytes). *)
val unmarshal : t -> string -> Asn1.value

(** [unmarshal_from t dec] decodes from the current position of [dec],
    leaving any following bytes unconsumed. *)
val unmarshal_from : t -> Xdr.Dec.t -> Asn1.value

(** [size t v] is [String.length (marshal t v)] without building the
    encoding. *)
val size : t -> Asn1.value -> int
