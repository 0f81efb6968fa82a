(** The TCP send (retransmission) ring buffer, in simulated memory.

    "Because TCP uses a ring buffer, to which the data is transferred
    during the ILP loop, the structure of the TCP buffer must be known
    during the ILP loop."  Reservations are contiguous: when a message does
    not fit in the space remaining before the wrap point, that tail is
    wasted (recorded as padding) and the reservation starts at the buffer
    base, so a fused loop can always write its message with straight-line
    addressing.  Space is released strictly FIFO, which matches cumulative
    acknowledgements. *)

type t

(** [create sim ~size] allocates the ring in [sim]'s data space. *)
val create : Ilp_memsim.Sim.t -> size:int -> t

val size : t -> int

(** Bytes that can still be reserved (counting the possible wrap waste
    pessimistically is the caller's concern; this is raw free space). *)
val available : t -> int

(** [reserve t len] returns the simulated-memory address of a contiguous
    [len]-byte region, or [-1] when it does not fit.  Regions must be
    released in reservation order. *)
val reserve : t -> int -> int

(** [fits t len] is whether {!reserve}[ t len] would succeed now. *)
val fits : t -> int -> bool

(** [release t] frees the oldest reservation (plus any wrap padding that
    preceded it).  [Error `Empty] when there is nothing in flight — which,
    reached from TCP, means an acknowledgement arrived for data never
    reserved (an attacker-controlled or corrupted ack). *)
val release : t -> (unit, [ `Empty ]) result

(** Raising convenience wrapper for tests; [Failure] when empty. *)
val release_exn : t -> unit

(** Oldest reservation's address and length, for retransmission. *)
val peek_oldest : t -> (int * int) option

(** Number of live reservations. *)
val in_flight : t -> int

(** Reservations that wrapped: the tail before the wrap point was too
    short, was recorded as waste, and the region started back at the
    base.  A streaming sender cycles the ring continuously, so this is
    the direct witness that a transfer exercised the wrap path. *)
val wraps : t -> int

