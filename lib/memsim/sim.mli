(** Convenience bundle: one simulated machine with its memory, a data-space
    allocator and an instruction-space allocator.  Every charged component
    (ciphers, checksums, TCP buffers, the ILP engine) is built from one of
    these. *)

type t = {
  machine : Machine.t;
  mem : Mem.t;
  alloc : Alloc.t;
  code : Code.allocator;
}

(** [create config] builds a machine and a [mem_size]-byte address space
    (default 4 MiB — comfortably larger than any experiment's working
    set). *)
val create : ?mem_size:int -> Config.t -> t

(** Zero counters {e and} invalidate caches (cold-start measurement). *)
val cold_start : t -> unit
