(** The ILP extension of the stub compiler (section 2.1 of the paper).

    The paper lists two ways to keep an ILP implementation modular: a
    macro pre-processor that synthesises the fused loop, and — "another
    approach studied by us" — extending the stub compiler so that the
    generated marshalling code can feed an integrated loop directly.

    This module is that extension.  A message is described once
    ({!Asn1.ty}); at send time a cursor walks the type's leaves in
    declaration order and each is pushed a value: small control fields
    are immediate values (marshalled now, in registers, into generated
    byte runs), while bulk fields reference application memory and are
    left in place for the ILP loop to read, encrypt and checksum on its
    single pass.  The result is the stub's laid-out {!segment}s — the
    exact input of [Ilp_core.Engine.prepare_stream_segments] — so any
    message type the algebra describes gets the integrated treatment
    without hand-writing its layout.

    {!segment} is the one description of an outgoing message: the engine
    frames the laid-out segments into a segment array (length field,
    body, CRC32 trailer, alignment) that its simulated loop reads and
    that [Ilp_fastpath.Wire]'s native sends gather, with no conversion
    in between. *)

type segment =
  | Gen of string  (** generated bytes (produced in registers) *)
  | App of { addr : int; len : int }
      (** [len] bytes of application memory at [addr], read in place *)

type t

(** [compile ty] prepares the layout engine for [ty].  Like
    {!Stub.compile}, this is the "stub compiler" step.  The compiled
    stub owns the scratch every message of [ty] is laid out in (one XDR
    encoder and one segment array, emptied by {!start}), so a layout
    allocates only the segments it lays out; two layouts of one stub
    must not run at the same time (one domain). *)
val compile : Asn1.ty -> t

(** {2 The cursor}

    [start t], then one push per leaf of the type in declaration order
    (a sequence is walked into its fields; an [Int], [Uint], [Enum],
    [Opaque] or [Str] is one leaf), then {!finish}.  Each push is checked
    against its leaf's type, as {!Asn1.check} checks a value; the typed
    pushes allocate nothing. *)

(** Begin a message: empty the scratch, first leaf next. *)
val start : t -> unit

(** An [Int] or [Uint] leaf. *)
val push_int : t -> int -> unit

(** An [Enum] leaf, by index. *)
val push_enum : t -> int -> unit

(** A [Str] leaf. *)
val push_str : t -> string -> unit

(** An [Opaque] or [Str] leaf whose bytes live in application memory:
    [len] bytes at [addr], left in place (the length word and the
    padding are still generated). *)
val push_memory : t -> addr:int -> len:int -> unit

(** [finish t] ends the message.  [Ok ()]: the laid-out segments are
    [(segments t).(0 .. count t - 1)] — one [Gen] string per run of
    generated bytes and one [App] per memory field — until the next
    {!start}.  The first failure is the [Error]: a push past the type's
    last leaf, a leaf left without a push, a memory push to a field that
    is not opaque or a string (or of a negative length), or a value that
    does not inhabit its leaf. *)
val finish : t -> (unit, string) result

(** Segments laid out by the last {!finish}. *)
val count : t -> int

(** The stub's segment array; its first {!count} entries are the laid-out
    message.  The array is the stub's scratch: read it before the next
    {!start}. *)
val segments : t -> segment array

(** Byte length of one segment. *)
val segment_len : segment -> int

(** Total byte length of the laid-out segments. *)
val total_len : t -> int

(** [flatten mem t] materialises the laid-out segments (payload bytes
    peeked from simulated memory, uncharged) — for tests: the result
    must equal {!Stub.marshal} of the corresponding complete value. *)
val flatten : Ilp_memsim.Mem.t -> t -> string
