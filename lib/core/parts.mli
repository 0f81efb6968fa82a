(** Message-part planning for header/data dependencies (section 3.2.2).

    The marshalled message is prefixed by an encryption header (a 4-byte
    length field) that is itself encrypted, so marshalling starts at
    position α = 4 while the first complete encryption block starts at
    β = 8.  The last block (from γ = total - 8) contains the alignment
    bytes, and only after producing it is the length field known.  The ILP
    loop therefore processes part B (\[β, γ)) first, then part C
    (\[γ, total)), and finally part A (\[0, β)) — which is only legal
    because none of the integrated manipulations is ordering-constrained. *)

type t = {
  total : int;  (** encrypted message length (multiple of the block size) *)
  body_len : int;  (** marshalled bytes, encryption header excluded *)
  alignment : int;  (** zero bytes appended to reach [total] *)
  alpha : int;
      (** where marshalling output starts: after the 4-byte length
          field *)
  beta : int;  (** where part B starts *)
  gamma : int;  (** where part C starts *)
}

(** [plan ~block_len ~body_len] computes the layout for a marshalled
    message of [body_len] bytes behind the 4-byte encryption header,
    aligned to the cipher's [block_len] (8 for every cipher here).
    Raises [Invalid_argument] if [body_len < 0] or [block_len] is not a
    multiple of 4 longer than the header. *)
val plan : block_len:int -> body_len:int -> t

(** The marshalled length stored in the length field:
    [4 + body_len]. *)
val length_field : t -> int

(** Offset/length of each part.  Parts B and C may be empty (length 0) for
    very short messages; part A is always one block. *)
val part_a : t -> int * int

val part_b : t -> int * int
val part_c : t -> int * int

(** The paper's processing order: B, then C, then A. *)
val in_processing_order : t -> (string * (int * int)) list
