(** The memory-traffic ledger: global per-layer counters of the bytes the
    host data path reads, writes, copies and allocates.

    The paper's claim is that ILP wins by {e reducing memory accesses};
    the simulated backend proves it with charged cycles, and this ledger
    proves the same for the native lane and for the engine's host-side
    buffer management (where the cost shows up as copies and GC churn
    rather than simulated stalls).  Counters are the slots of one
    process-wide [Ilp_obs.Metrics] block (the [mem.*] family) — bumping
    one from a hot loop allocates nothing — and are sampled with
    {!snapshot}/{!diff} around a measured region, exactly like the
    simulator's {!Ilp_memsim.Stats} ledger.  They are never reset.

    Accounting convention: a blit is a {e copy} (read + write + copy), an
    in-place transform such as a cipher pass is read + write only, a
    checksum fold is read only, and every fresh [Bytes.create] on the
    data path is an {e alloc}.  The headline "bytes copied per TSDU"
    figure of [ilpbench mem] is {!copied_total}. *)

type layer = Marshal | Cipher | Checksum | Tcp | Rpc | Pool

val layer_name : layer -> string
val layers : layer list

(** [read l n] — the layer read [n] bytes (e.g. a checksum fold). *)
val read : layer -> int -> unit

(** [write l n] — the layer wrote [n] bytes it did not read. *)
val write : layer -> int -> unit

(** [copied l n] — the layer moved [n] bytes (read + write + copy). *)
val copied : layer -> int -> unit

(** [inplace l n] — the layer transformed [n] bytes in place. *)
val inplace : layer -> int -> unit

(** [alloc l n] — the layer allocated a fresh [n]-byte buffer. *)
val alloc : layer -> int -> unit

(** {1 Receive-direction charges}

    The plain entry points above are direction-blind totals.  Receive-path
    code charges through the [_rx] variants instead: each bumps the totals
    {e and} a receive-side sub-ledger, reported as [mem.rx.<layer>.<kind>]
    metrics, so per-direction consumers ([ilpbench mem] tx/rx columns and
    gates) can split the ledger.  The send share of any counter is
    total minus rx. *)

val read_rx : layer -> int -> unit
val write_rx : layer -> int -> unit
val copied_rx : layer -> int -> unit
val inplace_rx : layer -> int -> unit
val alloc_rx : layer -> int -> unit

type snapshot

val snapshot : unit -> snapshot

(** [diff later earlier] — counter deltas over a measured region. *)
val diff : snapshot -> snapshot -> snapshot

val reads_total : snapshot -> int
val writes_total : snapshot -> int
val copied_total : snapshot -> int
val allocated_total : snapshot -> int
val alloc_blocks_total : snapshot -> int

(** Per-direction splits of {!copied_total} / {!allocated_total}: the rx
    figures sum the [_rx] charges, the tx figures are the remainder. *)
val copied_rx_total : snapshot -> int

val copied_tx_total : snapshot -> int
val allocated_rx_total : snapshot -> int
val allocated_tx_total : snapshot -> int

(** [(reads, writes, copies, allocs)] of one layer. *)
val of_layer : snapshot -> layer -> int * int * int * int

(** The receive-side share of {!of_layer}. *)
val of_layer_rx : snapshot -> layer -> int * int * int * int
