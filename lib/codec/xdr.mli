(** XDR (RFC 1014) external data representation: primitive encoders and
    decoders.

    All quantities are big-endian and every item occupies a multiple of
    4 bytes — the 4-byte processing unit that makes marshalling one of the
    paper's word-oriented data manipulation functions. *)

(** [padding n] is the number of zero bytes after [n] payload bytes
    (0..3). *)
val padding : int -> int

(** [padded n] is [n + padding n]. *)
val padded : int -> int

module Enc : sig
  type t

  val create : unit -> t
  val int32 : t -> int -> unit

  (** [uint32] accepts 0 .. 2^32-1. *)
  val uint32 : t -> int -> unit

  (** [opaque e s] emits a length word, the bytes and padding (also the
      encoding of [string<>]). *)
  val opaque : t -> string -> unit

  (** [raw e s] appends bytes verbatim, with no padding — for callers that
      manage alignment themselves (the ILP stub layout). *)
  val raw : t -> string -> unit

  val length : t -> int
  val contents : t -> string

  (** [clear e] empties [e] for reuse; strings already taken with
      {!contents} are unaffected. *)
  val clear : t -> unit
end

(** The one XDR reader: a cursor over a body [buf.[off..off+len-1]]
    that reads no byte outside it.  Every read checks its bounds against
    the body's end, and every error is an {!Error} whose positions are
    counted from the body's start.  A cursor can be re-pointed at
    another body ({!reset}), so a receiver that decodes every message
    through one cursor allocates nothing per message. *)
module Dec : sig
  type t

  exception Error of string
  (** Raised on truncated or malformed input. *)

  (** [of_string s] is a cursor over all of [s]. *)
  val of_string : string -> t

  (** [create ()] is a cursor over an empty body, to be {!reset}. *)
  val create : unit -> t

  (** [reset d buf ~off ~len] points [d] at the body
      [buf.[off..off+len-1]], first byte next; a span outside [buf] is an
      {!Error}.  The cursor only reads [buf]. *)
  val reset : t -> Bytes.t -> off:int -> len:int -> unit

  val int32 : t -> int
  val uint32 : t -> int

  (** [enum d n] reads an enumeration's index; an index of [n] or more
      is an {!Error}. *)
  val enum : t -> int -> int

  (** [opaque d] reads a variable-length opaque (or [string<>]) and
      copies its bytes out. *)
  val opaque : t -> string

  (** [opaque_in_place d] reads a variable-length opaque like {!opaque},
      but leaves its bytes in the buffer: the result is the length, and
      the bytes start at {!opaque_off}. *)
  val opaque_in_place : t -> int

  (** The position, in the buffer, of the first byte of the last opaque
      read. *)
  val opaque_off : t -> int

  (** Bytes left in the body. *)
  val remaining : t -> int

  (** [expect_end d] raises {!Error} if any input remains. *)
  val expect_end : t -> unit
end
