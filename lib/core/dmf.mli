(** Data manipulation functions — the things ILP integrates.

    A DMF transforms a fixed-size processing unit {e in registers}: the
    transform receives a small scratch [Bytes.t] holding one unit and
    rewrites it in place.  Whatever ALU work and table/key memory traffic
    the function needs is charged by the transform itself (the charged
    ciphers do this); what is deliberately {e not} charged here is the
    movement of the unit between memory and registers — that is the
    driver's job ({!Pipeline}), because deciding who moves the data and in
    what unit sizes is exactly the design space the paper explores. *)

type t = {
  name : string;
  unit_len : int;  (** processing-unit size in bytes (1, 2, 4 or 8) *)
  code : Ilp_memsim.Code.region;
      (** instruction footprint, fetched once per unit processed *)
  transform : Bytes.t -> int -> unit;
      (** [transform block off] rewrites [unit_len] bytes in place *)
}

val create :
  name:string ->
  unit_len:int ->
  code:Ilp_memsim.Code.region ->
  (Bytes.t -> int -> unit) ->
  t

(** Encryption / decryption direction of a charged block cipher. *)
val of_cipher_encrypt : Ilp_cipher.Block_cipher.t -> t

val of_cipher_decrypt : Ilp_cipher.Block_cipher.t -> t

(** [marshalling sim ~name ()] is the word manipulation of a
    stub-compiler-generated XDR routine: the data transform is the identity
    (XDR opaque bytes travel unchanged; the byte-order and framing work is
    an ALU charge of 2 ops per word plus 1 per unit), the unit is 4 bytes,
    and the code region competes for the instruction cache like any other
    stage. *)
val marshalling :
  Ilp_memsim.Sim.t -> ?name:string -> ?unit_len:int -> unit -> t
(** [unit_len] (default 4, must be a multiple of 4) widens the
    marshalling unit — the paper's section 5 suggests uniform unit sizes
    across manipulation functions as an ILP-friendly protocol feature. *)

(** [identity n] transforms nothing and charges nothing (tests). *)
val identity : int -> t

(** [apply_over t block ~off ~len] applies the transform to each unit of a
    longer register block; [len] must be a multiple of [unit_len]. *)
val apply_over : t -> Bytes.t -> off:int -> len:int -> unit
