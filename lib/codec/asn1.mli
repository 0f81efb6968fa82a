(** ASN.1-lite: the message-description algebra our stub compiler consumes.

    The paper describes its request and reply formats in ASN.1 and derives
    marshalling code with the MAVROS stub compiler; the generated code uses
    the XDR external representation.  This module gives the same workflow
    in library form: describe a message type as a {!ty}, then
    {!Stub.compile} it into marshalling routines.  The algebra has the
    leaves the RPC messages are written in and the sequence that groups
    them. *)

type ty =
  | Int  (** 32-bit signed, XDR [int] *)
  | Uint  (** 32-bit unsigned *)
  | Enum of string array  (** named alternatives, encoded as an int *)
  | Opaque  (** variable-length byte string *)
  | Str  (** variable-length text *)
  | Seq of (string * ty) list  (** SEQUENCE / XDR struct *)

type value =
  | VInt of int
  | VEnum of int
  | VBytes of string  (** for [Opaque] *)
  | VStr of string
  | VSeq of value list

(** [check ty v] verifies that [v] inhabits [ty] (field counts, enum
    range, 32-bit integer range). *)
val check : ty -> value -> (unit, string) result

(** [equal a b] is structural equality on values. *)
val equal : value -> value -> bool

val pp_ty : Format.formatter -> ty -> unit
val pp_value : Format.formatter -> value -> unit
