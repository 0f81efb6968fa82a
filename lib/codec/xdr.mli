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

  val hyper : t -> int64 -> unit
  val bool : t -> bool -> unit

  (** [fixed_opaque e s] emits the bytes of [s] plus padding (length is
      implied by the type, not transmitted). *)
  val fixed_opaque : t -> string -> unit

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

module Dec : sig
  type t

  exception Error of string
  (** Raised on truncated or malformed input. *)

  val of_string : string -> t

  (** [sub d ~pos] starts decoding at byte [pos]. *)
  val sub : string -> pos:int -> t

  val int32 : t -> int
  val uint32 : t -> int
  val hyper : t -> int64
  val bool : t -> bool
  val fixed_opaque : t -> int -> string
  val opaque : t -> string
  val pos : t -> int
  val remaining : t -> int

  (** [expect_end d] raises {!Error} if any input remains. *)
  val expect_end : t -> unit
end
