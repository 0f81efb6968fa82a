(** A simulated machine: cache hierarchy, cycle counter and access ledger.

    This is the clock every experiment is measured against.  Data accesses
    move through the first-level data cache, the optional second-level
    cache, and main memory; instruction fetches move through the
    instruction cache; register/ALU work is charged with {!compute}.
    Packet processing time in microseconds is [cycles / clock].

    Cycle charging: a first-level hit costs the configured L1 latency
    (usually 0 — the load pipeline is folded into the instruction's compute
    charge); a miss costs the L2 hit or main-memory latency for the line
    fill, plus a writeback charge when a dirty line is evicted.
    Write-through caches never hold dirty lines; their write traffic is
    assumed absorbed by a write buffer. *)

type t

val create : Config.t -> t

(** [read t ~addr ~size] / [write t ~addr ~size] charge one data access of
    [size] bytes (1, 2, 4 or 8) at [addr], splitting across cache lines if
    the access straddles one. *)
val read : t -> addr:int -> size:int -> unit

val write : t -> addr:int -> size:int -> unit

(** [read_run t ~addr ~len ~unit ~ops] charges exactly what [len / unit]
    iterations of [read ~addr:(addr + i*unit) ~size:unit; compute ops]
    charge — cycles, ledger and cache state alike — searching tags only
    where the read or the write crosses into a new line.  [unit] is
    1, 2, 4 or 8; a trailing fragment shorter than [unit] is not
    charged. *)
val read_run : t -> addr:int -> len:int -> unit:int -> ops:int -> unit

(** [copy_run t ~src ~dst ~len ~unit] charges exactly what [len / unit]
    iterations of [read ~addr:(src + i*unit) ~size:unit;
    write ~addr:(dst + i*unit) ~size:unit; compute 1] charge, in the
    same way as {!read_run}.  The ranges may overlap. *)
val copy_run : t -> src:int -> dst:int -> len:int -> unit:int -> unit

(** [exec t region] fetches a code region through the instruction cache,
    one Ifetch access per line.  Only misses cost cycles; the execution
    cost itself is charged by the caller via {!compute}.

    It charges exactly what the per-line walk charges, at the cost of a
    few calls when the region is resident: a walk that leaves all of the
    region's lines resident memoises their ways in the region
    ({!Code.memo}), and while the instruction cache has filled no line
    and not been flushed since ({!Cache.fills}), the next [exec] of the
    region on the same machine counts the accesses and replays the hits
    on those ways in line order.  A region larger than the cache, or
    whose lines evict each other, is walked every time.  Neither path
    allocates after a region's first walk. *)
val exec : t -> Code.region -> unit

(** [compute t ops] charges [ops] abstract ALU operations
    ([ops * compute_scale] cycles). *)
val compute : t -> int -> unit

(** [cycles t] is the stall plus [ops * compute_scale], formed when
    read: the machine counts stalls in quarter cycles and ALU work in
    ops, both as ints, so every batching of them is exact.  On a compute
    scale of 1.0 (the SPARCs) it is the float that adding the terms one
    by one gives. *)
val cycles : t -> float

(** [micros t] is [cycles t / clock_mhz]. *)
val micros : t -> float

(** [store_micros t a i] sets [a.(i)] to [micros t], bit for bit,
    allocating nothing: a caller that times an interval on every
    datagram keeps its readings in a float array instead of boxing each
    one. *)
val store_micros : t -> float array -> int -> unit

(** Cycles spent stalled on the memory system (cache fills, write-buffer
    drains) — the quantity the paper's [atom] simulations call "memory
    system time". *)
val stall_cycles : t -> float

val stall_micros : t -> float

(** The instruction-fetch share of {!stall_cycles} (the paper observed
    24-28% on the Alphas under ILP). *)
val ifetch_stall_cycles : t -> float

val stats : t -> Stats.t

(** Zero the cycle counter and the ledger, keeping cache contents (used to
    exclude warm-up from a measurement). *)
val reset_counters : t -> unit

(** Invalidate all caches. *)
val flush_caches : t -> unit
