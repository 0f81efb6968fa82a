(** Bump allocator for carving buffers out of a simulated address space.

    There is no [free]: the experiments allocate their working set once
    (application buffer, marshalling buffer, TCP ring, kernel buffer,
    cipher tables) and reuse it, exactly like the measured C programs. *)

type t

(** [create ~base ~limit] manages addresses in \[base, limit). *)
val create : base:int -> limit:int -> t

(** [alloc t ?align n] reserves [n] bytes aligned to [align] (default 8,
    must be a power of two).  Raises [Failure] when the space is
    exhausted. *)
val alloc : t -> ?align:int -> int -> int

(** Bytes still available. *)
val remaining : t -> int
