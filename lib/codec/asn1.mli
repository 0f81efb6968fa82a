(** ASN.1-lite: the message-description algebra our stub compiler consumes.

    The paper describes its request and reply formats in ASN.1 and derives
    marshalling code with the MAVROS stub compiler; the generated code uses
    the XDR external representation.  This module gives the same workflow
    in library form: describe a message type as a {!ty}, then
    {!Stub.compile} it into marshalling routines. *)

type ty =
  | Int  (** 32-bit signed, XDR [int] *)
  | Uint  (** 32-bit unsigned *)
  | Hyper  (** 64-bit signed *)
  | Bool
  | Enum of string array  (** named alternatives, encoded as an int *)
  | Fixed_opaque of int  (** exactly n bytes *)
  | Opaque  (** variable-length byte string *)
  | Str  (** variable-length text *)
  | Seq of (string * ty) list  (** SEQUENCE / XDR struct *)
  | Seq_of of ty  (** SEQUENCE OF / variable-length array *)
  | Choice of (string * ty) array  (** CHOICE / discriminated union *)
  | Option of ty  (** OPTIONAL / XDR optional-data *)

type value =
  | VInt of int
  | VHyper of int64
  | VBool of bool
  | VEnum of int
  | VBytes of string  (** for [Fixed_opaque] and [Opaque] *)
  | VStr of string
  | VSeq of value list
  | VList of value list
  | VChoice of int * value
  | VNone
  | VSome of value

(** [check ty v] verifies that [v] inhabits [ty] (field counts, enum and
    choice ranges, fixed-opaque lengths, 32-bit integer range). *)
val check : ty -> value -> (unit, string) result

(** [equal a b] is structural equality on values. *)
val equal : value -> value -> bool

val pp_ty : Format.formatter -> ty -> unit
val pp_value : Format.formatter -> value -> unit
