(** The ILP extension of the stub compiler (section 2.1 of the paper).

    The paper lists two ways to keep an ILP implementation modular: a
    macro pre-processor that synthesises the fused loop, and — "another
    approach studied by us" — extending the stub compiler so that the
    generated marshalling code can feed an integrated loop directly.

    This module is that extension.  A message is described once
    ({!Asn1.ty}); at send time each field is given a {!source}: small
    control fields are immediate values (marshalled now, in registers,
    into generated byte runs), while bulk fields reference application
    memory and are left in place for the ILP loop to read, encrypt and
    checksum on its single pass.  The result is a {!segment} list — the
    exact input of [Ilp_core.Engine.prepare_stream_segments] — so arbitrary
    message types get the integrated treatment without hand-writing their
    layout.

    {!segment} is the one description of an outgoing message: the engine
    frames the list into a segment array (length field, body, CRC32
    trailer, alignment) that its simulated loop reads and that
    [Ilp_fastpath.Wire]'s native sends gather, with no conversion in
    between. *)

type source =
  | Immediate of Asn1.value
      (** marshal this value now (header fields, lengths, enums…) *)
  | From_memory of { addr : int; len : int }
      (** the field's bytes live in application memory; only valid for
          [Opaque], [Str] and [Fixed_opaque] fields (the length word and
          padding are still generated) *)

type segment =
  | Gen of string  (** generated bytes (produced in registers) *)
  | App of { addr : int; len : int }
      (** [len] bytes of application memory at [addr], read in place *)

type t

(** [compile ty] prepares the layout engine for [ty].  Like
    {!Stub.compile}, this is the "stub compiler" step.  The compiled
    stub owns the scratch every {!layout} of [ty] works in (one XDR
    encoder and one segment array, emptied by each call), so a layout
    allocates only what it returns; two layouts of one stub must not
    run at the same time (one domain). *)
val compile : Asn1.ty -> t

val ty : t -> Asn1.ty

(** [layout t sources] walks the type with one {!source} per leaf field
    (in declaration order; a sequence-of, choice or option field is a
    leaf taking one [Immediate]) and produces the wire segments.  Each
    immediate value is checked once, against its field's type.

    The result holds one [Gen] string per run of generated bytes and
    one [App] per memory field.

    Errors: wrong number of sources, a [From_memory] on a non-opaque
    field, an [Immediate] that does not inhabit its field type. *)
val layout : t -> source list -> (segment list, string) result

(** Byte length of one segment. *)
val segment_len : segment -> int

(** Total byte length of a segment list. *)
val total_len : segment list -> int

(** [flatten mem segs] materialises the segments (payload bytes peeked
    from simulated memory, uncharged) — for tests: the result must equal
    {!Stub.marshal} of the corresponding complete value. *)
val flatten : Ilp_memsim.Mem.t -> segment list -> string
